"""fatkpp's benchmark: three CLI experiments, timed end to end and by layer.

    python3 perfbench/run.py --workload {front,snapshots,crossval}
        [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a source checkout: the package is imported from
the `src/` directory next to `perfbench/`, nothing needs installing or
building.  Each operation is one `fatkpp.cli.main` call on the
workload's config in a fresh interpreter (`child.py`), one process at a
time, with BLAS/OpenMP pinned to one thread.  Operations repeat until
`--seconds` have passed, at least MIN_ROUNDS times, so every run attempts
whole rounds.  Every operation's outputs are checked (`workloads.py`) and
must be byte-identical to the first operation's; an operation that exits
non-zero or fails a check counts as failed.

With `--trace 0` the last stdout line gives the end-to-end metrics, the
medians over operations: wall_s, setup_s, peak_rss_mb, node_steps_per_s.
With `--trace 1` each round is one untraced and one traced operation,
and the line gives the per-layer metrics of `tracing.py`.  The workloads
use no random input, so `--seed` changes nothing but is recorded.

Outputs go to a fresh directory under `.perfbench_work/` at the checkout
root, removed after each operation's checks.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from tracing import layer_metrics
from workloads import WORKLOADS, compare_bytes, digest, load

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")

MIN_ROUNDS = 2          # the determinism check needs two operations
SETUP_PROBES = 2        # extra set-up-only interpreters per run
CHILD_TIMEOUT_S = 150
_ONE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _child_env():
    env = dict(os.environ, PYTHONPATH=SRC)
    env.update({k: "1" for k in _ONE_THREAD})
    return env


def spawn(mode, config, out, scratch):
    """Run child.py once; returns its result dict, or raises RuntimeError."""
    result = os.path.join(scratch, "child.json")
    if os.path.exists(result):
        os.remove(result)
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, mode, config, out, result],
            cwd=ROOT, env=_child_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError("no result within %d s" % CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("child exited %d: %s"
                           % (proc.returncode, proc.stderr.strip()[-400:]))
    with open(result) as fh:
        res = json.load(fh)
    res["setup_s"] = res["ready"] - start
    return res


def operation(wl, mode, scratch, reference):
    """One checked experiment; returns (result or None, problems, digest)."""
    out = tempfile.mkdtemp(prefix="op-", dir=scratch)
    try:
        try:
            res = spawn(mode, wl.config_path, out, scratch)
        except RuntimeError as exc:
            return None, [str(exc)], None
        if res["rc"] != 0:
            return None, ["fatkpp exited %d" % res["rc"]], None
        problems = wl.check(out, wl.config)
        sums = digest(out)
        if reference is not None:
            problems += compare_bytes(reference, sums)
        with open(os.path.join(out, "run.json")) as fh:
            res["node_steps"] = wl.node_steps(wl.config, json.load(fh))
        return res, problems, sums
    finally:
        shutil.rmtree(out, ignore_errors=True)


def end_to_end(ops, setups):
    walls = [r["wall_s"] for r in ops]
    return {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in ops),
                        "MB"),
        "node_steps_per_s": (statistics.median(
            r["node_steps"] / r["wall_s"] for r in ops), "node-steps/s"),
    }


def per_layer(plain, traced):
    overhead = (statistics.median(r["wall_s"] for r in traced)
                - statistics.median(r["wall_s"] for r in plain))
    each = [layer_metrics(r["spans"], overhead) for r in traced]
    return {name: (statistics.median(m[name][0] for m in each), unit)
            for name, (_, unit) in each[0].items()}


def measure(wl, seconds, trace, scratch):
    modes = ("run", "trace") if trace else ("run",)
    setups = [spawn("setup", wl.config_path, scratch, scratch)["setup_s"]
              for _ in range(SETUP_PROBES)]
    done = {mode: [] for mode in modes}
    attempted = failed = 0
    correct = True
    reference = None
    rounds = 0
    start = time.monotonic()
    while rounds < MIN_ROUNDS or time.monotonic() - start < seconds:
        rounds += 1
        # alternate which mode goes first, so neither always runs warm
        for mode in (modes if rounds % 2 else modes[::-1]):
            attempted += 1
            res, problems, sums = operation(wl, mode, scratch, reference)
            if res is None or problems:
                failed += 1
                correct = correct and res is None
                print("perfbench: %s %s operation %d failed:\n  %s"
                      % (wl.name, mode, attempted, "\n  ".join(problems)),
                      file=sys.stderr)
                continue
            reference = reference or sums
            setups.append(res["setup_s"])
            done[mode].append(res)
            print("perfbench: %s %s operation %d: wall %.3f s, set-up "
                  "%.3f s, peak %.0f MB" % (wl.name, mode, attempted,
                                            res["wall_s"], res["setup_s"],
                                            res["peak_rss_mb"]),
                  file=sys.stderr)
    metrics = {}
    if trace and done["run"] and done["trace"]:
        metrics = per_layer(done["run"], done["trace"])
    elif not trace and done["run"]:
        metrics = end_to_end(done["run"], setups)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0,
                    help="echoed only: the workloads use no random input")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fatkpp", "cli.py")):
        print("perfbench: no fatkpp sources at %s" % SRC, file=sys.stderr)
        return 2
    wl = load(args.workload)
    print("perfbench: %s, seed %d, %g s, trace %d"
          % (wl.name, args.seed, args.seconds, args.trace), file=sys.stderr)

    work = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="%s-" % wl.name, dir=work)
    try:
        result = measure(wl, args.seconds, bool(args.trace), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
