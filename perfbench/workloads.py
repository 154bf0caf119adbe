"""The three workloads: their configs, output checks and step counts.

Each workload is one CLI experiment on a fixed config in `configs/`.
No workload uses random input.  Every check compares an output with a
closed form computed here, or with a property the method must have; no
check compares with a stored copy of an earlier output.  A check returns
a list of problems, empty when the output passes.
"""

import glob
import hashlib
import json
import math
import os

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))


def read_csv(path):
    """(header, rows x columns float array) of one fatkpp CSV."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        body = fh.read().rstrip("\n")
    if not body:
        return header, np.empty((0, len(header)))
    rows = body.count("\n") + 1
    data = np.fromstring(body.replace("\n", ","), sep=",")
    if data.size != rows * len(header):
        raise ValueError("%s: %d values in %d rows of %d columns"
                         % (path, data.size, rows, len(header)))
    return header, data.reshape(rows, len(header))


def columns(path):
    header, data = read_csv(path)
    return {name: data[:, j] for j, name in enumerate(header)}


def digest(out):
    """sha256 of every CSV and SVG an experiment wrote, by file name."""
    sums = {}
    for path in sorted(glob.glob(os.path.join(out, "*.csv"))
                       + glob.glob(os.path.join(out, "*.svg"))):
        with open(path, "rb") as fh:
            sums[os.path.basename(path)] = hashlib.sha256(fh.read()).hexdigest()
    return sums


def compare_bytes(reference, sums):
    """Problems when two digests of the same experiment differ."""
    differ = sorted(k for k in set(sums) | set(reference)
                    if sums.get(k) != reference.get(k))
    if not differ:
        return []
    return ["outputs differ from the first operation's: %s"
            % ", ".join(differ)]


def _manifest(out, problems):
    with open(os.path.join(out, "run.json")) as fh:
        doc = json.load(fh)
    if doc.get("aborted") is not False:
        problems.append("run.json: aborted is %r (%s)"
                        % (doc.get("aborted"), doc.get("abort_reason")))
    return doc


def _steps(cfg):
    s = cfg["solver"]
    return int(math.ceil(s["t_end"] / s["dt"] - 1e-9))


# ----------------------------------------------------------------------
# front: Polynomial kernel, f(x) = ((1 + alpha)/2) ln(1 + x^2)


def check_front(out, cfg):
    problems = []
    doc = _manifest(out, problems)
    if doc["manifest"].get("steps_taken") != _steps(cfg):
        problems.append("run.json: steps_taken %r, config asks for %d"
                        % (doc["manifest"].get("steps_taken"), _steps(cfg)))
    c = 0.5 * (1.0 + cfg["kernel"]["alpha"])

    def f(x):
        return c * math.log1p(x * x)

    def f_inv(y):
        return math.sqrt(math.expm1(y / c))

    fr = columns(os.path.join(out, "front.csv"))
    times = sorted(set(fr["t"].tolist()))
    if times != sorted(float(s) for s in cfg["solver"]["snapshots"]):
        problems.append("front.csv: times %s differ from the config"
                        % times)
    levels = sorted(cfg["analysis"]["levels"])
    for t in times:
        at = fr["t"] == t
        pos = {lv: fr["x_level"][at & (fr["level"] == lv)] for lv in levels}
        if any(p.size != 1 for p in pos.values()):
            problems.append("front.csv: t=%g lacks one row per level" % t)
            continue
        x = float(pos[0.5][0])
        if t >= 16.0 and not abs(f(x) / t - 1.0) <= 0.15:
            problems.append("front law: t=%g, x_0.5=%r, f(x)/t=%r is not "
                            "within 0.15 of 1" % (t, x, f(x) / t))
        if t >= 10.0 and not x >= f_inv(0.8 * t):
            problems.append("front lags: t=%g, x_0.5=%r < f_inv(0.8 t)=%r"
                            % (t, x, f_inv(0.8 * t)))
        reached = [(lv, float(pos[lv][0])) for lv in levels
                   if math.isfinite(pos[lv][0])]
        for (lo, x_lo), (hi, x_hi) in zip(reached, reached[1:]):
            if not x_hi <= x_lo:
                problems.append("level order: t=%g, x_%g=%r > x_%g=%r"
                                % (t, hi, x_hi, lo, x_lo))

    env = columns(os.path.join(out, "envelope.csv"))
    for name in ("sandwich_lo_violation", "sandwich_hi_violation"):
        worst = float(np.max(env[name])) if env[name].size else math.nan
        if not worst <= 1e-12 or np.isnan(env[name]).any():
            problems.append("envelope.csv: %s reaches %r" % (name, worst))
    th = dict(zip(env["t"].tolist(), env["theta_hat"].tolist()))
    last = env["theta_hat"][-1] if env["t"].size else math.nan
    if 4.0 not in th or not last < th[4.0]:
        problems.append("envelope.csv: theta_hat at the last snapshot (%r) "
                        "is not below its value at t=4 (%r)"
                        % (last, th.get(4.0)))
    return problems


def node_steps_cauchy(cfg, doc):
    return cfg["grid"]["N"] * doc["manifest"]["steps_taken"]


# ----------------------------------------------------------------------
# snapshots: Simulate with every snapshot written at full resolution


def check_snapshots(out, cfg):
    problems = []
    doc = _manifest(out, problems)
    if doc["manifest"].get("steps_taken") != _steps(cfg):
        problems.append("run.json: steps_taken %r, config asks for %d"
                        % (doc["manifest"].get("steps_taken"), _steps(cfg)))
    L, N = float(cfg["grid"]["L"]), cfg["grid"]["N"]
    count = cfg["solver"]["snapshot_count"]
    t_end = cfg["solver"]["t_end"]
    want = sorted("%g" % (t_end * i / count) for i in range(1, count + 1))
    paths = glob.glob(os.path.join(out, "snapshot_t*.csv"))
    labels = sorted(os.path.basename(p)[len("snapshot_t"):-len(".csv")]
                    for p in paths)
    if labels != want:
        problems.append("snapshot files %s, expected %s" % (labels, want))
    if not os.path.isfile(os.path.join(out, "density.svg")):
        problems.append("density.svg is missing")
    mon = columns(os.path.join(out, "monitors.csv"))
    x_want = -L + (2.0 * L / N) * np.arange(N)
    for path in sorted(paths):
        name = os.path.basename(path)
        t = float(name[len("snapshot_t"):-len(".csv")])
        snap = columns(path)
        x, n = snap["x"], snap["n"]
        if n.size != N:
            problems.append("%s: %d rows, expected N=%d" % (name, n.size, N))
            continue
        if not np.max(np.abs(x - x_want)) <= 1e-12 * L:
            problems.append("%s: x column is not -L + i 2L/N" % name)
        if not (n.min() >= 0.0 and n.max() <= 1.0):
            problems.append("%s: n leaves [0, 1]: [%r, %r]"
                            % (name, n.min(), n.max()))
        odd = float(np.max(np.abs(n[1:] - n[:0:-1])))
        if not odd <= 1e-12:
            problems.append("%s: density is not even, |n(x_i) - n(x_N-i)| "
                            "reaches %r" % (name, odd))
        row = np.flatnonzero(np.abs(mon["t"] - t) <= 1e-9)
        if row.size != 1:
            problems.append("monitors.csv: %d rows at t=%g" % (row.size, t))
        elif n.max() != mon["n_max"][row[0]]:
            problems.append("%s: max %r differs from monitors n_max %r"
                            % (name, n.max(), mon["n_max"][row[0]]))
    return problems


# ----------------------------------------------------------------------
# crossval: LogLinear kernel f = beta ln(1 + |x|), u0 = A f


def check_crossval(out, cfg):
    problems = []
    doc = _manifest(out, problems)
    beta, A = cfg["kernel"]["beta"], cfg["analysis"]["A"]
    r_hat = 2.0 / ((1.0 - A) * beta - 1.0)
    x_lo, x_hi = cfg["analysis"]["compact"]
    eps_list = sorted(cfg["analysis"]["eps"], reverse=True)
    tol = 1e-12

    rows = doc.get("cross_validation") or []
    if [r["eps"] for r in rows] != eps_list:
        problems.append("run.json: cross_validation eps %s, expected %s"
                        % ([r["eps"] for r in rows], eps_list))
    sups = [r["sup_error"] for r in rows]
    if not all(b <= a for a, b in zip(sups, sups[1:])):
        problems.append("run.json: sup errors %s are not nonincreasing"
                        % sups)

    hj = columns(os.path.join(out, "hj_solution.csv"))
    u0 = A * beta * np.log1p(np.abs(hj["x"]))
    cap = np.maximum(u0 - hj["t"], 0.0)
    if not hj["u"].min() >= 0.0:
        problems.append("hj_solution.csv: u < 0 (min %r)" % hj["u"].min())
    excess = float(np.max(hj["u"] - cap))
    if not excess <= tol:
        problems.append("hj_solution.csv: u exceeds max(u0 - t, 0) by %r"
                        % excess)

    gaps = []
    for eps in eps_list:
        name = "mutation_eps%g.csv" % eps
        mu = columns(os.path.join(out, name))
        n = mu["n_eps"]
        if not (n.min() >= 0.0 and n.max() <= 1.0):
            problems.append("%s: n leaves [0, 1]: [%r, %r]"
                            % (name, n.min(), n.max()))
        win = (mu["x"] >= x_lo) & (mu["x"] <= x_hi)
        t = mu["t"][win]
        du = mu["u_eps"][win] - A * beta * np.log1p(np.abs(mu["x"][win]))
        below = float(np.max(-r_hat * t - du))
        above = float(np.max(du - t))
        if not (below <= tol and above <= tol):
            problems.append("%s: -%g t <= u_eps - u0 <= t fails inside the "
                            "window by %r below, %r above"
                            % (name, r_hat, below, above))
        if not (np.array_equal(mu["t"], hj["t"])
                and np.array_equal(mu["x"], hj["x"])):
            problems.append("%s: rows do not match hj_solution.csv" % name)
            continue
        gaps.append(float(np.max(np.abs(mu["u_eps"][win] - hj["u"][win]))))
    if not all(b <= a for a, b in zip(gaps, gaps[1:])):
        problems.append("sup gap recomputed from the CSVs is not "
                        "nonincreasing along eps: %s" % gaps)
    return problems


def node_steps_crossval(cfg, doc):
    """Every eps run marches the config's steps; the HJ loop its own."""
    N = cfg["grid"]["N"]
    return N * (len(cfg["analysis"]["eps"]) * _steps(cfg)
                + doc["manifest"]["steps"])


class Workload:
    def __init__(self, name, check, node_steps):
        self.name = name
        self.config_path = os.path.join(HERE, "configs", name + ".json")
        with open(self.config_path) as fh:
            self.config = json.load(fh)
        self.check = check
        self.node_steps = node_steps


WORKLOADS = {
    "front": (check_front, node_steps_cauchy),
    "snapshots": (check_snapshots, node_steps_cauchy),
    "crossval": (check_crossval, node_steps_crossval),
}


def load(name):
    check, node_steps = WORKLOADS[name]
    return Workload(name, check, node_steps)
