"""Check that two source trees write the same bytes for the same configs.

    python tools/compare_outputs.py BASE HEAD [CONFIG ...]

BASE and HEAD are checkouts of this repository.  Each config is run once
per tree as ``python -m fatkpp.cli --config C --out DIR --quiet``, with
that tree's ``src`` on PYTHONPATH and OPENBLAS_NUM_THREADS=1 (the thread
count the benchmark uses).  The configs default to the three
``perfbench/configs/*.json`` next to this script; they are only read.

For each config the two exit codes and the SHA-256 of every CSV and SVG
under the two output directories are compared, and so is each run.json
less the fields that depend on the clock or the host: keys ending in
``_s``, ``timestamp`` and ``peak_rss_mb``, at any depth.  Every file that
differs, or that only one side wrote, is printed, and the script exits 1
if there is any; otherwise it prints one line per config and exits 0.
Outputs go to a temporary directory that is removed afterwards.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

_HOST_KEYS = ("timestamp", "peak_rss_mb")   # besides every key ending in _s


def _steady(doc):
    """A run.json document without its clock and host fields."""
    if isinstance(doc, dict):
        return {k: _steady(v) for k, v in doc.items()
                if not (k.endswith("_s") or k in _HOST_KEYS)}
    if isinstance(doc, list):
        return [_steady(v) for v in doc]
    return doc


def _run(tree, config, out):
    """Run one config on one tree; returns its exit code and the SHA-256
    of each CSV and SVG, and of each run.json's steady fields, by path
    under out."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(tree).resolve() / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "fatkpp.cli", "--config", str(config),
         "--out", str(out), "--quiet"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    digests = {}
    if out.is_dir():
        for path in sorted(out.rglob("*")):
            if not path.is_file():
                continue
            if path.suffix in (".csv", ".svg"):
                data = path.read_bytes()
            elif path.name == "run.json":
                data = json.dumps(_steady(json.loads(path.read_text())),
                                  sort_keys=True).encode()
            else:
                continue
            digests[str(path.relative_to(out))] = hashlib.sha256(
                data).hexdigest()
    return proc.returncode, digests


def compare(base, head, configs, work):
    """Print the differences per config; returns how many were found."""
    found = 0
    for config in configs:
        name = Path(config).stem
        (code_b, sums_b), (code_h, sums_h) = (
            _run(tree, config, Path(work) / side / name)
            for side, tree in (("base", base), ("head", head)))
        diffs = []
        if code_b != code_h:
            diffs.append("exit code %d -> %d" % (code_b, code_h))
        for rel in sorted(set(sums_b) | set(sums_h)):
            if sums_b.get(rel) != sums_h.get(rel):
                diffs.append("%s: %s" % (
                    rel, "only in head" if rel not in sums_b
                    else "only in base" if rel not in sums_h
                    else "differs"))
        found += len(diffs)
        print("%s: exit %d, %d files, %s" % (
            name, code_h, len(sums_h),
            "same bytes" if not diffs else "%d differences" % len(diffs)))
        for line in diffs:
            print("  " + line)
    return found


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="Compare the CSV, SVG and run.json outputs two source "
                    "trees write.")
    ap.add_argument("base", help="the reference tree")
    ap.add_argument("head", help="the tree under test")
    ap.add_argument("configs", nargs="*",
                    help="config files (default: perfbench/configs/*.json)")
    args = ap.parse_args(argv)
    configs = args.configs or sorted(
        (Path(__file__).resolve().parents[1] / "perfbench" / "configs")
        .glob("*.json"))
    with tempfile.TemporaryDirectory() as work:
        return 1 if compare(args.base, args.head, configs, work) else 0


if __name__ == "__main__":
    sys.exit(main())
