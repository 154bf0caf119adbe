"""Self-tests of the output checks in workloads.py.

    python3 perfbench/selftest.py

Runs each workload once, exactly as run.py does, and requires its clean
outputs to pass.  Then, for each corruption below, it copies the
outputs, damages one value or one byte, and requires the check to report
the expected problem.  Exits 0 when every corruption is caught.
"""

import json
import math
import os
import shutil
import sys
import tempfile

from run import ROOT, spawn
from workloads import compare_bytes, digest, load


def edit_csv(path, column, pick, change):
    """Rewrite one cell: the first row where pick(row) holds."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    j = header.index(column)
    for i in range(1, len(lines)):
        cells = lines[i].split(",")
        row = dict(zip(header, map(float, cells)))
        if pick(row):
            cells[j] = "%.17g" % change(row[column])
            lines[i] = ",".join(cells)
            break
    else:
        raise LookupError("%s: no row to corrupt" % path)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def flip_byte(path):
    """Flip the lowest bit of one digit in the middle of the file."""
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    i = len(data) // 2
    while not chr(data[i]).isdigit():
        i += 1
    data[i] ^= 1
    with open(path, "wb") as fh:
        fh.write(bytes(data))


def edit_cross_validation(path):
    with open(path) as fh:
        doc = json.load(fh)
    rows = doc["cross_validation"]
    rows[-1]["sup_error"] = 2.0 * rows[0]["sup_error"]
    with open(path, "w") as fh:
        json.dump(doc, fh)


def at(**want):
    return lambda row: all(row[k] == v for k, v in want.items())


# (workload, what is damaged, file, damage, expected problem text)
CORRUPTIONS = [
    ("front", "front position moved off the law", "front.csv",
     lambda p: edit_csv(p, "x_level", at(t=20.0, level=0.5),
                        lambda x: 2.0 * x), "front law"),
    ("front", "front position behind f_inv(0.8 t)", "front.csv",
     lambda p: edit_csv(p, "x_level", at(t=10.0, level=0.5),
                        lambda x: 4.0), "front lags"),
    ("front", "levels out of order", "front.csv",
     lambda p: edit_csv(p, "x_level", at(t=8.0, level=0.9),
                        lambda x: 1e3), "level order"),
    ("front", "sandwich violated", "envelope.csv",
     lambda p: edit_csv(p, "sandwich_hi_violation", at(t=6.0),
                        lambda v: 1e-9), "sandwich_hi_violation"),
    ("front", "theta_hat growing", "envelope.csv",
     lambda p: edit_csv(p, "theta_hat", at(t=20.0), lambda v: 1.0),
     "theta_hat"),
    ("snapshots", "one asymmetric density node", "snapshot_t1.csv",
     lambda p: edit_csv(p, "n", at(x=-500.0), lambda v: v + 1e-9),
     "not even"),
    ("snapshots", "density above 1", "snapshot_t2.csv",
     lambda p: edit_csv(p, "n", at(x=0.0), lambda v: 1.5),
     "leaves [0, 1]"),
    ("snapshots", "grid node moved", "snapshot_t0.5.csv",
     lambda p: edit_csv(p, "x", at(x=0.0), lambda v: 1e-3), "x column"),
    ("snapshots", "monitor disagrees with the snapshot", "monitors.csv",
     lambda p: edit_csv(p, "n_max", lambda r: abs(r["t"] - 1.5) < 1e-9,
                        lambda v: v - 1e-6), "differs from monitors"),
    ("snapshots", "one flipped byte in a snapshot", "snapshot_t1.5.csv",
     flip_byte, "differ from the first"),
    ("crossval", "HJ solution above max(u0 - t, 0)", "hj_solution.csv",
     lambda p: edit_csv(p, "u", at(t=0.25, x=-37.5),
                        lambda v: 0.75 * math.log1p(37.5) - 0.25 + 1e-6),
     "exceeds max(u0 - t, 0)"),
    ("crossval", "potential outside the a-priori bounds",
     "mutation_eps0.2.csv",
     lambda p: edit_csv(p, "u_eps", at(t=0.5, x=37.5), lambda v: v + 5.0),
     "fails inside the window"),
    ("crossval", "density below 0", "mutation_eps0.4.csv",
     lambda p: edit_csv(p, "n_eps", at(t=0.125, x=0.0), lambda v: -1e-3),
     "leaves [0, 1]"),
    ("crossval", "sup errors growing along eps", "run.json",
     edit_cross_validation, "not nonincreasing"),
]


def main():
    work = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="selftest-", dir=work)
    missed = []
    try:
        for name in ("front", "snapshots", "crossval"):
            wl = load(name)
            clean = os.path.join(scratch, name)
            os.mkdir(clean)
            res = spawn("run", wl.config_path, clean, scratch)
            problems = wl.check(clean, wl.config) if res["rc"] == 0 else [
                "fatkpp exited %d" % res["rc"]]
            if problems:
                print("%s: clean outputs fail: %s" % (name, problems))
                return 1
            reference = digest(clean)
            for w, what, fname, damage, expect in CORRUPTIONS:
                if w != name:
                    continue
                bad = os.path.join(scratch, "bad")
                shutil.copytree(clean, bad)
                damage(os.path.join(bad, fname))
                found = (wl.check(bad, wl.config)
                         + compare_bytes(reference, digest(bad)))
                caught = any(expect in p for p in found)
                print("%-10s %-42s %s" % (name, what,
                                          "caught" if caught else "MISSED"))
                if not caught:
                    missed.append((name, what, found))
                shutil.rmtree(bad)
            shutil.rmtree(clean)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for name, what, found in missed:
        print("%s: %s not caught; problems reported: %s"
              % (name, what, found))
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
