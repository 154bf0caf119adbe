"""Run configuration: JSON parsing, defaults, and full validation.

A run is described by one JSON object with an ``experiment`` name and up
to five blocks (kernel, grid, solver, analysis, output).  Parsing is
split in two: `parse_config` turns the file into a dict (syntax problems
raise ParseError with line/column context), and `validate_config` turns
the dict into a `RunConfig`, collecting every violated constraint before
raising a single ValidationError, so a bad config is fixed in one pass.
"""

import json
import math
from dataclasses import dataclass

from .cauchy import SolverConfig, _is_num, check_rate
from .errors import (GridTooCoarse, InvalidParams, IoError, NoConvergence,
                     NonIntegrableTail, ParseError, ValidationError)
from .gridops import Grid1D
from .hj import comparison_times, window_nodes
from .kernels import _FAMILIES, KernelSpec, build_kernel
from .mutation import check_resolution
from .propagation import dilated_window, mapped_times

# The config keys each experiment reads, besides the kernel block that
# all of them read, with the other facts that differ by experiment: the
# entries its analysis.compact window has, whether it steps rescaled runs
# at rate 1/eps, and whether its A must also stay below p_max =
# f'(0) (1 - 1/mu), where the kappa envelope converges.  A key outside an
# experiment's row is refused: its run would ignore it.
_GRID = ("grid.L", "grid.N")
_TIMES = ("solver.t_end", "solver.snapshots", "solver.snapshot_count")
_STEPS = _GRID + _TIMES + ("solver.dt", "solver.method",
                           "solver.boundary_guard")
_OUT = ("output.directory", "output.plot", "output.stride")
_CAUCHY = _STEPS + ("solver.C",) + _OUT
_RESCALED = _STEPS + ("analysis.eps", "analysis.A") + _OUT
READS = {   # experiment: (keys, compact entries, rate 1/eps, A < p_max)
    "KernelValidate": (("output.directory",), None, False, False),
    "Simulate": (_CAUCHY, None, False, False),
    "Front": (_CAUCHY + ("analysis.levels",), None, False, False),
    "HopfCole": (_CAUCHY + ("analysis.eps", "analysis.compact"), 4, False,
                 False),
    "Mutation": (_RESCALED, None, True, False),
    "HJ": (_GRID + _TIMES + ("analysis.A",) + _OUT, None, False, True),
    "Hamiltonian": (("analysis.A", "output.directory", "output.plot"), None,
                    False, True),
    "CrossValidate": (_RESCALED + ("analysis.compact",), 2, True, False),
}
EXPERIMENTS = tuple(READS)

# a kernel parameter is known when some family reads it
_PARAMS = tuple(dict.fromkeys(p for _, ranges in _FAMILIES.values()
                              for p in ranges))
_KERNEL = {"kernel.family"}.union("kernel." + p for p in _PARAMS)
_KNOWN = _KERNEL.union(*(keys for keys, *_ in READS.values()))
# keys without a default: an experiment that reads one needs it
_REQUIRED = ("kernel.family", "grid.L", "grid.N", "solver.t_end",
             "analysis.eps", "analysis.compact")
_BLOCKS = ("kernel", "grid", "solver", "analysis", "output")


@dataclass
class RunConfig:
    """Validated configuration with every default already filled in.

    kernel is the built (normalized) Kernel; grid and solver are None
    for experiments that do not integrate anything, and A is None for
    experiments that take no initial cone slope.  raw echoes the parsed
    JSON for the manifest.
    """

    experiment: str
    kernel: object
    grid: object
    solver: object
    C: float
    levels: tuple
    eps_list: tuple
    A: float
    compact: tuple
    out_dir: str
    plot: bool
    stride: int
    raw: dict


def parse_config(path):
    """Read and validate a JSON run configuration.

    An unreadable path raises IoError; syntax errors raise ParseError
    carrying the line and column, and a number that is not finite a
    ParseError naming it; a syntactically valid config that breaks any
    constraint raises ValidationError whose .issues lists all of them.
    """
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except OSError as exc:
        raise IoError("cannot read config %s: %s" % (path, exc))
    try:
        raw = json.loads(text, parse_float=_finite, parse_constant=_finite)
    except json.JSONDecodeError as exc:
        raise ParseError("invalid JSON at line %d column %d: %s"
                         % (exc.lineno, exc.colno, exc.msg))
    if not isinstance(raw, dict):
        raise ParseError("top level must be a JSON object, got %s"
                         % type(raw).__name__)
    return validate_config(raw)


def _finite(text):
    """A JSON float or constant as a float, refused unless finite: json
    accepts NaN, Infinity and -Infinity, and reads 1e999 as inf."""
    if not math.isfinite(float(text)):
        raise ParseError("config number %s is not finite" % text)
    return float(text)


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _num_list(ok=lambda c: True):
    """Acceptor of nonempty lists of numbers that each pass ok."""
    return lambda v: (isinstance(v, list) and bool(v)
                      and all(_is_num(c) and ok(c) for c in v))


def _take(block, name, key, ok, rule, issues, default=None):
    """block[key] when ok accepts it, else default; a given value that ok
    rejects adds the issue "<name>.<key>: <rule>"."""
    if key not in block:
        return default
    if ok(block[key]):
        return block[key]
    issues.append("%s.%s: %s" % (name, key, rule))
    return default


def _shared_labels(values):
    """Values whose %g labels coincide, listed per label; output file
    names and run.json keys carry these labels."""
    by_label = {}
    for v in values:
        by_label.setdefault("%g" % v, []).append(repr(v))
    return "; ".join("%s from %s" % (label, ", ".join(vs))
                     for label, vs in by_label.items() if len(vs) > 1)


def validate_config(raw):
    """Check a parsed config dict and return the filled-in RunConfig."""
    issues = []
    experiment = raw.get("experiment")
    if experiment not in EXPERIMENTS:
        issues.append("experiment: must be one of %s, got %r"
                      % (", ".join(EXPERIMENTS), experiment))
        experiment = None
    reads, want, rescaled, kappa = READS.get(experiment,
                                             ((), None, False, False))
    # an unknown experiment is checked against the keys any experiment reads
    allowed = _KERNEL.union(reads) if experiment else _KNOWN

    blocks = {}
    for name in sorted(set(raw) - {"experiment"}):
        if name not in _BLOCKS:
            issues.append("%s: unknown top-level key" % name)
        elif not isinstance(raw[name], dict):
            issues.append("%s: must be an object" % name)
        else:
            blocks[name] = raw[name]
            for key in sorted("%s.%s" % (name, k) for k in raw[name]):
                if key not in _KNOWN:
                    issues.append("%s: unknown key" % key)
                elif key not in allowed:
                    issues.append("%s: not read by %s" % (key, experiment))
    for key in _REQUIRED:
        name, k = key.split(".")
        if (key in _KERNEL or key in reads) and k not in blocks.get(name, {}):
            issues.append("%s: required for %s"
                          % (key, experiment or "every experiment"))
    kb, gb, sb, ab, ob = (blocks.get(name, {}) for name in _BLOCKS)

    # ---- kernel ----
    kernel = None
    family = _take(kb, "kernel", "family", lambda v: isinstance(v, str),
                   "must be a string", issues)
    if family is not None:
        kwargs = {key: kb[key] for key in _PARAMS if key in kb}
        bad = [key for key, v in kwargs.items() if not _is_num(v)]
        issues.extend("kernel.%s: must be a number" % key for key in bad)
        if not bad:
            kwargs = {key: float(v) for key, v in kwargs.items()}
            try:
                kernel = build_kernel(KernelSpec(family=family, **kwargs))
            except InvalidParams as exc:
                # a parameter's issues start with its name
                sep = "." if family in _FAMILIES else ": "
                issues.extend("kernel%s%s" % (sep, msg) for msg in exc.issues)
            except NoConvergence as exc:
                issues.append("kernel: %s" % exc)

    # ---- grid ----
    grid = None
    L = _take(gb, "grid", "L", _is_num, "must be a number", issues)
    N = _take(gb, "grid", "N", _is_int, "must be an integer", issues)
    if L is not None and N is not None:
        try:
            grid = Grid1D(float(L), N)
        except InvalidParams as exc:
            issues.append("grid: %s" % exc)

    # ---- analysis (validated before solver so eps can gate dt) ----
    levels = tuple(float(c) for c in _take(
        ab, "analysis", "levels", _num_list(lambda c: 0.0 < c < 1.0),
        "must be a nonempty list of numbers in (0, 1)", issues, (0.5,)))
    eps_list = tuple(float(c) for c in _take(
        ab, "analysis", "eps", _num_list(lambda c: 0.0 < c <= 1.0),
        "must be a nonempty list of numbers in (0, 1]", issues, ()))
    shared = _shared_labels(eps_list)
    if shared:
        issues.append("analysis.eps: values must have distinct %%g labels, "
                      "got %s" % shared)

    compact = None
    if "compact" in ab:
        v = ab["compact"]
        if (not isinstance(v, list) or len(v) not in (2, 4)
                or not all(_is_num(c) for c in v)
                or not all(v[i] < v[i + 1] for i in range(0, len(v), 2))):
            issues.append("analysis.compact: must be [x_lo, x_hi] or "
                          "[x_lo, x_hi, t_lo, t_hi] with lo < hi")
        elif want is not None and len(v) != want:
            issues.append("analysis.compact: %s needs %d entries, got %d"
                          % (experiment, want, len(v)))
        else:
            compact = tuple(float(c) for c in v)
    # a window off the grid would fail the run after its first files
    try:
        if experiment == "CrossValidate" and None not in (compact, grid):
            window_nodes(grid, compact)
        if experiment == "HopfCole" and None not in (compact, grid, kernel):
            for eps in eps_list:
                dilated_window(kernel, grid, eps, compact[:2])
    except InvalidParams as exc:
        issues.append("analysis.compact: %s" % exc)

    A = _take(ab, "analysis", "A", lambda v: _is_num(v) and v > 0.0,
              "must be a positive number", issues)
    A = None if A is None else float(A)

    # ---- eligibility and A range (need the built kernel) ----
    if "analysis.A" in reads and kernel is not None:
        hi = kernel.a_cap(envelope=kappa)
        if A is None:
            # the midpoint of (0, 1 - 1/mu) where it is admissible
            A = 0.5 * kernel.a_max
            A = A if A < hi else 0.5 * hi
        try:
            kernel.check_A(A, envelope=kappa)
        except NonIntegrableTail:
            issues.append("analysis.A: must lie in (0, %g) for this "
                          "kernel, got %g" % (hi, A))
        except InvalidParams as exc:    # a kernel the regime cannot take
            issues.append("kernel: %s for %s; %s"
                          % (type(exc).__name__, experiment, exc))
            A = None

    # ---- solver ----
    solver = None
    C = float(_take(sb, "solver", "C", lambda v: _is_num(v) and v > 0.0,
                    "must be a positive number", issues, 1.0))
    if sb:
        t_end = sb.get("t_end")
        times = None
        if "snapshots" in sb and "snapshot_count" in sb:
            issues.append("solver: give snapshots or snapshot_count, "
                          "not both")
        else:
            times = _take(sb, "solver", "snapshots", _num_list(),
                          "must be a nonempty list of numbers", issues)
            count = _take(sb, "solver", "snapshot_count",
                          lambda v: _is_int(v) and v >= 1,
                          "must be a positive integer", issues)
            if count is not None and _is_num(t_end):
                # end on t_end itself: t_end * count / count can round below
                times = tuple(t_end * i / count
                              for i in range(1, count)) + (t_end,)
            shared = _shared_labels(times or ())
            if shared:
                issues.append("solver.snapshots: times must have distinct "
                              "%%g labels, got %s" % shared)

        given = {key: sb[key] for key in ("dt", "method", "boundary_guard")
                 if key in sb}
        dt = given.get("dt", SolverConfig.dt)
        try:
            solver = SolverConfig(t_end=t_end, snapshot_times=times,
                                  **given)
        except InvalidParams as exc:
            # a missing t_end is reported as required above
            issues.extend("solver.%s" % msg for msg in exc.issues
                          if "t_end" in sb or not msg.startswith("t_end"))

        if rescaled and eps_list and _is_num(dt):
            try:
                check_rate(dt, min(eps_list))
            except InvalidParams as exc:
                issues.append("solver.dt: %s at min(eps) = %g"
                              % (exc, min(eps_list)))
        # the initial density at x = L - dx, the larger edge density and
        # the first one cauchy.run observes: n0 = e^{-A f(|x|)/eps} of a
        # rescaled run, which grows with eps, and min(C J(|x|), 1) of a
        # Cauchy run
        edge = None
        if rescaled and eps_list and None not in (kernel, grid, solver, A):
            eps = max(eps_list)
            edge = math.exp(-A * float(kernel.f(grid.x[-1])) / eps)
            what = "e^{-A f(L-dx)/eps} = %.3e (A = %g, eps = %g)" % (
                edge, A, eps)
        elif "solver.C" in reads and None not in (kernel, grid, solver):
            edge = min(C * kernel.J(grid.x[-1]), 1.0)
            what = "min(C J(L-dx), 1) = %.3e (C = %g)" % (edge, C)
        if edge is not None and edge >= solver.boundary_guard:
            issues.append("grid.L: the initial edge density %s reaches "
                          "solver.boundary_guard = %g"
                          % (what, solver.boundary_guard))
        if rescaled and edge is not None:
            try:
                check_resolution(kernel, min(eps_list), grid)
            except GridTooCoarse as exc:
                issues.append("grid.N: %s" % exc)

    # times the analysis reads that no snapshot gives would fail the run
    # after its first files
    if experiment == "CrossValidate" and solver is not None:
        try:
            comparison_times(solver.snapshot_times)
        except InvalidParams as exc:
            issues.append("solver.snapshots: %s" % exc)
    if experiment == "HopfCole" and None not in (solver, compact):
        for eps in eps_list:
            try:
                mapped_times(eps, solver.snapshot_times, compact[2:])
            except InvalidParams as exc:
                issues.append("analysis.compact: %s at eps = %g"
                              % (exc, eps))

    # ---- output ----
    out_dir = _take(ob, "output", "directory",
                    lambda v: isinstance(v, str) and bool(v),
                    "must be a nonempty string", issues, ".")
    plot = _take(ob, "output", "plot", lambda v: isinstance(v, bool),
                 "must be true or false", issues, True)
    stride = _take(ob, "output", "stride", lambda v: _is_int(v) and v >= 1,
                   "must be a positive integer", issues, 1)

    if issues:
        raise ValidationError(*issues)
    return RunConfig(experiment, kernel, grid, solver, C, levels,
                     eps_list, A, compact, out_dir, plot, stride, raw)
