"""The benchmark's tracer still sees the layers it measures.

perfbench/tracing.py wraps fatkpp's functions by name and reads a few
fields off their results (`cauchy.run`'s steps_taken, the HJ solver's
steps).  A rename in the package would leave those metrics at zero
without any error, so one traced Front and one traced CrossValidate run
go through perfbench/child.py here, exactly as the benchmark starts them.
"""

import json
import os
import subprocess
import sys

import pytest

import fatkpp

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_PERFBENCH = os.path.join(_ROOT, "perfbench")

FRONT = {
    "experiment": "Front",
    "kernel": {"family": "Polynomial", "alpha": 4},
    "grid": {"L": 300, "N": 4096},
    "solver": {"t_end": 1, "dt": 0.05, "snapshots": [0.5, 1]},
    "analysis": {"levels": [0.5]},
}

CROSSVAL = {
    "experiment": "CrossValidate",
    "kernel": {"family": "LogLinear", "beta": 3},
    "grid": {"L": 200, "N": 65536},
    "solver": {"method": "Euler", "dt": 0.01, "t_end": 0.1},
    "analysis": {"eps": [0.25, 0.125], "A": 0.25, "compact": [-5, 5]},
    "output": {"stride": 16},
}


def _traced_metrics(tmp_path, name, doc):
    """layer_metrics of one `child.py trace` run of doc."""
    cfg = tmp_path / (name + ".json")
    cfg.write_text(json.dumps(doc))
    result = tmp_path / (name + "_result.json")
    src = os.path.dirname(os.path.dirname(os.path.abspath(fatkpp.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, os.path.join(_PERFBENCH, "child.py"), "trace",
         str(cfg), str(tmp_path / name), str(result)],
        capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(result.read_text())
    assert res["rc"] == 0
    sys.path.insert(0, _PERFBENCH)
    try:
        from tracing import layer_metrics
    finally:
        sys.path.remove(_PERFBENCH)
    return {k: v for k, (v, _) in layer_metrics(res["spans"], 0.0).items()}


# per config, the metrics that read zero when the tracer misses a layer
_CASES = {
    "front": (FRONT, ("cauchy.steps", "gridops.apply.calls",
                      "output.write_csv.calls",
                      "propagation.envelope_residual.calls")),
    "crossval": (CROSSVAL, ("cauchy.steps", "hj.lf_steps",
                            "gridops.apply.calls", "output.write_csv.calls",
                            "mutation.mutation_run.self_s")),
}


@pytest.mark.parametrize("name", sorted(_CASES))
def test_tracer_sees_every_layer(tmp_path, name):
    doc, metrics = _CASES[name]
    m = _traced_metrics(tmp_path, name, doc)
    for key in metrics:
        assert m[key] > 0, key
