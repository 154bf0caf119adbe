"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload front [--runs 10]
        [--seconds 10] [--trace 0]

For every metric it prints the median over the runs and the distance
between the first and third quartile (`statistics.quantiles(n=4)`) as a
share of the median, next to the bound in BENCHMARK.json.  Each run's
result line is appended to `.perfbench_results/<workload>.jsonl` at the
checkout root, so two sets of runs (a parent and a change) can be
compared afterwards.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    log_dir = os.path.join(ROOT, ".perfbench_results")
    os.makedirs(log_dir, exist_ok=True)
    log = os.path.join(log_dir, "%s.jsonl" % args.workload)

    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        line = proc.stdout.strip().splitlines()[-1]
        res = json.loads(line)
        results.append(res)
        with open(log, "a") as fh:
            fh.write(json.dumps({"seed": seed, "trace": args.trace,
                                 "result": res}) + "\n")
        print("seed %d: exit %d, attempted %d, failed %d, %s"
              % (seed, proc.returncode, res["attempted"], res["failed"],
                 ", ".join("%s=%.4g" % (k, v["value"])
                           for k, v in res["metrics"].items())))

    print("%-40s %14s %10s %8s" % ("metric", "median", "IQR/med", "bound"))
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med if med else float("nan")
        print("%-40s %14.6g %10.4f %8s"
              % (name, med, share, bounds.get(name, "-")))
    shares = {(r["failed"], r["attempted"]) for r in results}
    print("failed/attempted per run: %s" % sorted(shares))


if __name__ == "__main__":
    main()
