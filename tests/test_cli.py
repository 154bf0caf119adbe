"""End-to-end command line runs: exit codes, file sets, determinism."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import fatkpp
from fatkpp.cli import main


def _cfg(tmp_path, doc, name="run.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def _manifest(outdir):
    return json.load(open(os.path.join(outdir, "run.json")))


def test_missing_config_file_exits_4(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "nope.json")]) == 4
    assert "cannot read" in capsys.readouterr().err


def test_bad_json_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{")
    assert main(["--config", str(p)]) == 2
    assert "line" in capsys.readouterr().err


def test_invalid_config_lists_issues_and_exits_2(tmp_path, capsys):
    doc = {"experiment": "Simulate",
           "kernel": {"family": "SubExponential", "alpha": 1.5},
           "grid": {"L": 100, "N": 1024},
           "solver": {"t_end": 1}}
    assert main(["--config", _cfg(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert "invalid config" in err and "alpha" in err


def test_kernel_validate_writes_the_report(tmp_path):
    doc = {"experiment": "KernelValidate",
           "kernel": {"family": "LogLinear", "beta": 3},
           "output": {"directory": str(tmp_path / "out")}}
    assert main(["--config", _cfg(tmp_path, doc), "--quiet"]) == 0
    doc = _manifest(str(tmp_path / "out"))
    assert doc["manifest"]["hypotheses_passed"] is True
    assert doc["manifest"]["mu"] == pytest.approx(3.0)
    assert doc["report"]["mutation_eligible"] is True
    assert doc["aborted"] is False


def test_kernel_validate_classifies_the_thin_tailed_control(tmp_path):
    doc = {"experiment": "KernelValidate",
           "kernel": {"family": "Gaussian", "sigma": 1.0},
           "output": {"directory": str(tmp_path / "out")}}
    assert main(["--config", _cfg(tmp_path, doc), "--quiet"]) == 0
    doc = _manifest(str(tmp_path / "out"))
    assert doc["manifest"]["hypotheses_passed"] is True
    assert doc["report"]["mutation_eligible"] is False
    assert doc["report"]["ratio_tail_max"] > 1.0


SIMULATE = {
    "experiment": "Simulate",
    "kernel": {"family": "Gaussian", "sigma": 1.0},
    "grid": {"L": 50, "N": 1024},
    "solver": {"t_end": 0.5, "dt": 0.05, "snapshots": [0.25, 0.5]},
}


def test_simulate_writes_snapshots_and_monitors(tmp_path, capsys):
    out = str(tmp_path / "out")
    doc = dict(SIMULATE)
    doc["output"] = {"directory": out, "stride": 4}
    assert main(["--config", _cfg(tmp_path, doc)]) == 0
    assert "finished" in capsys.readouterr().out
    for name in ("snapshot_t0.25.csv", "snapshot_t0.5.csv",
                 "monitors.csv", "density.svg", "run.json"):
        assert os.path.exists(os.path.join(out, name)), name
    back = np.loadtxt(os.path.join(out, "snapshot_t0.5.csv"),
                      delimiter=",", skiprows=1)
    assert back.shape == (1024 // 4, 2)
    mon = np.loadtxt(os.path.join(out, "monitors.csv"), delimiter=",",
                     skiprows=1)
    assert mon[:, 2].max() <= 1.0 + 1e-12


def test_quiet_suppresses_stdout_and_out_overrides(tmp_path, capsys):
    out = str(tmp_path / "elsewhere")
    doc = dict(SIMULATE)
    doc["output"] = {"directory": str(tmp_path / "ignored")}
    assert main(["--config", _cfg(tmp_path, doc), "--out", out,
                 "--quiet"]) == 0
    assert capsys.readouterr().out == ""
    assert os.path.exists(os.path.join(out, "run.json"))
    assert not os.path.exists(str(tmp_path / "ignored"))


# a small CrossValidate run: mutation CSVs, the HJ solution and a plot
CROSSVAL_SMALL = {
    "experiment": "CrossValidate",
    "kernel": {"family": "LogLinear", "beta": 3},
    "grid": {"L": 50, "N": 8192},
    "solver": {"t_end": 0.25, "dt": 0.025, "snapshots": [0.125, 0.25]},
    "analysis": {"eps": [0.25, 0.2], "A": 0.25, "compact": [-5, 5]},
}


def test_data_files_are_deterministic_across_runs(tmp_path):
    for base, names in (
            (SIMULATE, ("snapshot_t0.5.csv", "monitors.csv",
                        "density.svg")),
            (CROSSVAL_SMALL, ("mutation_eps0.25.csv", "mutation_eps0.2.csv",
                              "hj_solution.csv", "crossval.svg"))):
        outs = []
        for name in ("a", "b"):
            out = str(tmp_path / base["experiment"] / name)
            doc = dict(base)
            doc["output"] = {"directory": out}
            assert main(["--config", _cfg(tmp_path, doc, name + ".json"),
                         "--quiet"]) == 0
            outs.append(out)
        for name in names:
            b1 = open(os.path.join(outs[0], name), "rb").read()
            b2 = open(os.path.join(outs[1], name), "rb").read()
            assert b1 == b2, name


def test_contaminated_run_exits_3_with_partial_outputs(tmp_path, capsys):
    out = str(tmp_path / "out")
    doc = {"experiment": "Simulate",
           "kernel": {"family": "Gaussian", "sigma": 2.0},
           "grid": {"L": 10, "N": 256},
           "solver": {"t_end": 5, "dt": 0.05},
           "output": {"directory": out}}
    assert main(["--config", _cfg(tmp_path, doc), "--quiet"]) == 3
    assert "aborted" in capsys.readouterr().err
    man = _manifest(out)
    assert man["aborted"] is True
    assert "boundary density" in man["abort_reason"]
    assert os.path.exists(os.path.join(out, "monitors.csv"))


def test_front_writes_tracks_envelope_and_plot(tmp_path):
    out = str(tmp_path / "out")
    doc = {"experiment": "Front",
           "kernel": {"family": "Polynomial", "alpha": 4},
           "grid": {"L": 300, "N": 8192},
           "solver": {"t_end": 2, "dt": 0.05, "snapshots": [1, 2]},
           "analysis": {"levels": [0.25, 0.5]},
           "output": {"directory": out}}
    assert main(["--config", _cfg(tmp_path, doc), "--quiet"]) == 0
    front = np.loadtxt(os.path.join(out, "front.csv"), delimiter=",",
                       skiprows=1)
    assert front.shape == (4, 7)
    assert set(front[:, 1]) == {0.25, 0.5}
    assert os.path.exists(os.path.join(out, "envelope.csv"))
    assert os.path.exists(os.path.join(out, "front.svg"))
    man = _manifest(out)["manifest"]
    assert man["levels"] == [0.25, 0.5]
    # the convolution's shape: each block of block_length yields
    # block_length - 2 kernel_cells outputs, and the blocks cover the grid
    K, B, nb = (man[k] for k in ("kernel_cells", "block_length",
                                 "block_count"))
    assert K >= 1 and B > 2 * K and nb * (B - 2 * K) >= 8192
    # the stepper's pace: four convolutions per RK4 step
    assert man["steps_taken"] == 40
    assert man["convolutions"] == 4 * man["steps_taken"]
    assert man["steps_per_s"] == man["steps_taken"] / man["wall_time_s"]


def test_front_samples_the_kernel_once(tmp_path, monkeypatch):
    """The run and its envelope report share one sampled kernel."""
    real = fatkpp.gridops.discretize_kernel
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if (name.split(".")[0] == "fatkpp"
                and getattr(mod, "discretize_kernel", None) is real):
            monkeypatch.setattr(mod, "discretize_kernel", counted)
    out = str(tmp_path / "out")
    doc = {"experiment": "Front",
           "kernel": {"family": "Polynomial", "alpha": 4},
           "grid": {"L": 300, "N": 4096},
           "solver": {"t_end": 1, "dt": 0.05, "snapshots": [0.5, 1]},
           "analysis": {"levels": [0.5]},
           "output": {"directory": out}}
    assert main(["--config", _cfg(tmp_path, doc), "--quiet"]) == 0
    assert len(calls) == 1
    assert os.path.exists(os.path.join(out, "envelope.csv"))


def test_hopf_cole_reports_sup_errors(tmp_path):
    out = str(tmp_path / "out")
    doc = {"experiment": "HopfCole",
           "kernel": {"family": "Polynomial", "alpha": 4},
           "grid": {"L": 1000, "N": 16384},
           "solver": {"t_end": 2, "dt": 0.05, "snapshots": [1, 2]},
           "analysis": {"eps": [0.5], "compact": [0.5, 3, 0.5, 1]},
           "output": {"directory": out}}
    assert main(["--config", _cfg(tmp_path, doc), "--quiet"]) == 0
    assert os.path.exists(os.path.join(out, "hopfcole_eps0.5.csv"))
    man = _manifest(out)["manifest"]
    assert "0.5" in man["hopf_cole_sup_errors"]
    assert man["hopf_cole_sup_errors"]["0.5"] < 5.0


def test_mutation_writes_density_and_limit_sets(tmp_path):
    out = str(tmp_path / "out")
    doc = {"experiment": "Mutation",
           "kernel": {"family": "LogLinear", "beta": 3},
           "grid": {"L": 200, "N": 32768},
           "solver": {"t_end": 0.5, "dt": 0.05, "snapshots": [0.5]},
           "analysis": {"eps": [0.25], "A": 0.25},
           "output": {"directory": out, "stride": 8}}
    assert main(["--config", _cfg(tmp_path, doc), "--quiet"]) == 0
    assert os.path.exists(os.path.join(out, "mutation_eps0.25.csv"))
    lim = open(os.path.join(out, "limits.csv")).read().splitlines()
    assert lim[0] == "t,x,region"
    regions = {row.split(",")[2] for row in lim[1:]}
    assert regions <= {"A", "B", "U"} and "A" in regions
    man = _manifest(out)["manifest"]
    assert man["limits_eps"] == 0.25
    # the potential columns are -eps ln n of the density column, row by row
    data = np.loadtxt(os.path.join(out, "mutation_eps0.25.csv"),
                      delimiter=",", skiprows=1)
    assert data.shape == (32768 // 8, 5)
    n, u, flag = data[:, 2], data[:, 3], data[:, 4]
    assert np.array_equal(u, -0.25 * np.log(np.maximum(n, 1e-300)))
    assert np.array_equal(flag, (n < 1e-300).astype(float))


def test_hj_writes_solution_and_zero_set(tmp_path):
    out = str(tmp_path / "out")
    doc = {"experiment": "HJ",
           "kernel": {"family": "LogLinear", "beta": 3},
           "grid": {"L": 20, "N": 512},
           "solver": {"t_end": 0.5, "snapshots": [0.5]},
           "analysis": {"A": 0.25},
           "output": {"directory": out}}
    assert main(["--config", _cfg(tmp_path, doc), "--quiet"]) == 0
    zs = np.loadtxt(os.path.join(out, "zeroset.csv"), delimiter=",",
                    skiprows=1)
    assert zs[0] == pytest.approx(0.5)
    assert zs[3] < zs[4]
    assert -zs[1] == pytest.approx(zs[2], abs=2 * 40 / 512)
    man = _manifest(out)["manifest"]
    assert man["sigma"] > 0.0
    assert os.path.exists(os.path.join(out, "hj_solution.csv"))


def test_hamiltonian_profile_and_kappa_bounds(tmp_path):
    out = str(tmp_path / "out")
    doc = {"experiment": "Hamiltonian",
           "kernel": {"family": "LogLinear", "beta": 3},
           "analysis": {"A": 0.25},
           "output": {"directory": out}}
    assert main(["--config", _cfg(tmp_path, doc), "--quiet"]) == 0
    ham = np.loadtxt(os.path.join(out, "hamiltonian.csv"),
                     delimiter=",", skiprows=1)
    mid = ham.shape[0] // 2
    assert ham[mid, 0] == 0.0 and ham[mid, 1] == 1.0
    assert np.all(ham[:, 2] <= ham[:, 1] + 1e-12)
    assert np.all(ham[:, 1] <= ham[:, 3] + 1e-12)
    man = _manifest(out)["manifest"]
    assert 0.0 < man["kappa_lower"] <= man["kappa_upper"]
    assert man["p_max"] == pytest.approx(2.0)


def test_cross_validate_reports_monotone_errors(tmp_path):
    out = str(tmp_path / "out")
    doc = {"experiment": "CrossValidate",
           "kernel": {"family": "LogLinear", "beta": 3},
           "grid": {"L": 200, "N": 65536},
           "solver": {"t_end": 0.5, "dt": 0.025, "snapshots": [0.5]},
           "analysis": {"eps": [0.25, 0.125], "A": 0.25,
                        "compact": [-5, 5]},
           "output": {"directory": out, "stride": 16, "plot": False}}
    assert main(["--config", _cfg(tmp_path, doc), "--quiet"]) == 0
    doc = _manifest(out)
    rows = doc["cross_validation"]
    assert [r["eps"] for r in rows] == [0.25, 0.125]
    assert rows[1]["sup_error"] <= rows[0]["sup_error"]
    assert os.path.exists(os.path.join(out, "hj_solution.csv"))
    assert not os.path.exists(os.path.join(out, "crossval.svg"))


def test_console_module_reports_usage_errors(tmp_path):
    # The child runs outside the checkout, so a relative PYTHONPATH (or
    # none, when the package is not installed) would not find fatkpp:
    # put the directory holding the imported package first.
    src = os.path.dirname(os.path.dirname(os.path.abspath(fatkpp.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run(
        [sys.executable, "-m", "fatkpp.cli"],
        capture_output=True, text=True, cwd=str(tmp_path), env=env)
    assert proc.returncode == 2
    assert "--config" in proc.stderr
