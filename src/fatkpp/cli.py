"""Command line entry point.

    fatkpp --config <path> [--out <dir>] [--quiet]

One experiment per invocation, named in the JSON config.  Exit codes:
0 success, 2 config or parameter validation failure, 3 runtime abort
(boundary contamination, stability or gradient-range violations), 4
output I/O failure.  A contaminated simulation still writes whatever
snapshots it reached plus run.json with the abort flag set.
"""

import argparse
import math
import os
import sys
import time
from dataclasses import asdict

from .cauchy import initial_condition, run as run_cauchy
from .config import parse_config
from .errors import (BoundaryContamination, CFLViolation, DomainError,
                     GradientOutOfRange, GridTooCoarse, InvalidParams,
                     IoError, NoConvergence, NonIntegrableTail,
                     OutOfDomain, ParseError, StabilityViolation,
                     ValidationError)
from .gridops import Field, discretize_kernel
from .hj import (HJSolution, Hamiltonian, hamiltonian_profile,
                 inclusion_curves, cross_validate, solve_constrained_hj,
                 zero_set_boundary)
from .kernels import validate_hypotheses
from .mutation import classify_limit_sets, mutation_initial_data, \
    mutation_run
from .propagation import (envelope_sandwich_report, hopf_cole_field,
                          potential_of, track_level)
from . import output as out_io

_VALIDATION_ERRORS = (InvalidParams, DomainError, OutOfDomain,
                      GridTooCoarse, NonIntegrableTail, ValidationError)
_RUNTIME_ERRORS = (BoundaryContamination, StabilityViolation, CFLViolation,
                   GradientOutOfRange, NoConvergence)
_MAX_SERIES = 5         # density curves in one plot


def _simulate(cfg):
    n0 = initial_condition(cfg.kernel, cfg.grid, cfg.C)
    return run_cauchy(cfg.kernel, cfg.grid, cfg.solver, n0)


def _plot(cfg, out, name, series, title, xlabel, ylabel, logy=False):
    if cfg.plot:
        out_io.emit_svg_plot(os.path.join(out, name), series, title=title,
                             xlabel=xlabel, ylabel=ylabel, logy=logy)


def _snapshot_series(snaps):
    """At most _MAX_SERIES snapshots, spread evenly from first to last."""
    if len(snaps) > _MAX_SERIES:
        idx = [round(i * (len(snaps) - 1) / (_MAX_SERIES - 1))
               for i in range(_MAX_SERIES)]
        snaps = [snaps[i] for i in sorted(set(idx))]
    return [("t=%g" % t, fld.grid.x, fld.values) for t, fld in snaps]


def _do_kernel_validate(cfg, out):
    report = validate_hypotheses(cfg.kernel)
    manifest = dict(cfg.kernel.manifest(), hypotheses_passed=report.passed)
    return manifest, {"report": asdict(report)}


def _do_simulate(cfg, out):
    sim = _simulate(cfg)
    out_io.write_snapshots(out, sim, cfg.stride)
    out_io.write_monitors(out, sim)
    _plot(cfg, out, "density.svg", _snapshot_series(sim.snapshots),
          "density snapshots", "x", "n")
    return sim.manifest, None


def _do_front(cfg, out):
    # one sampled kernel serves the run and its envelope report
    dk = discretize_kernel(cfg.kernel, cfg.grid)
    n0 = initial_condition(cfg.kernel, cfg.grid, cfg.C)
    sim = run_cauchy(cfg.kernel, cfg.grid, cfg.solver, n0, dk=dk)
    tracks = [track_level(sim, lv) for lv in cfg.levels]
    out_io.write_front_csv(out, tracks, cfg.kernel)
    rows = envelope_sandwich_report(sim, dk, cfg.C)
    out_io.write_envelope_csv(out, rows)
    series = [("level %g" % tr.level, tr.times, tr.positions)
              for tr in tracks]
    series.append(("f_inv(t)", tracks[0].times, tracks[0].predicted))
    _plot(cfg, out, "front.svg", series,
          "front position vs the dispersal law", "t", "x", logy=True)
    manifest = dict(sim.manifest)
    manifest["levels"] = list(cfg.levels)
    return manifest, None


def _do_hopf_cole(cfg, out):
    sim = _simulate(cfg)
    sup = {}
    es = sorted(cfg.eps_list, reverse=True)
    for eps in es:
        hc = hopf_cole_field(sim, eps, cfg.compact[:2], cfg.compact[2:])
        out_io.write_hopfcole_csv(out, hc)
        sup["%g" % eps] = hc.sup_error()
    _plot(cfg, out, "hopfcole.svg",
          [("sup |u_eps - u|", es, [sup["%g" % e] for e in es])],
          "rescaled density vs its limit", "eps", "sup error")
    manifest = dict(sim.manifest)
    manifest["hopf_cole_sup_errors"] = sup
    return manifest, None


def _mutation_runs(cfg, out, init):
    """One rescaled run per eps, largest first, each written as it ends."""
    runs = []
    for eps in sorted(cfg.eps_list, reverse=True):
        mr = mutation_run(cfg.kernel, cfg.grid, eps, cfg.solver, init)
        out_io.write_mutation_csv(out, mr, cfg.stride)
        runs.append(mr)
    return runs


def _do_mutation(cfg, out):
    init = mutation_initial_data(cfg.kernel, cfg.grid, A=cfg.A)
    small = _mutation_runs(cfg, out, init)[-1]
    tol = 2.0 * small.eps * math.log(4.0)
    us = [(t, potential_of(fld.values, small.eps)[0])
          for t, fld in small.run.snapshots]
    out_io.write_limits_csv(out, cfg.grid, [
        (t, classify_limit_sets(u, tol)) for t, u in us], cfg.stride)
    t_last, u_last = us[-1]
    _plot(cfg, out, "mutation.svg",
          [("u_eps%g, t=%g" % (small.eps, t_last), cfg.grid.x, u_last)],
          "rescaled potential", "x", "u")
    manifest = dict(small.run.manifest)
    manifest["eps_list"] = sorted(cfg.eps_list, reverse=True)
    manifest["limits_eps"] = small.eps
    manifest["limits_tol"] = tol
    return manifest, None


def _do_hj(cfg, out):
    H = Hamiltonian(cfg.kernel)
    u0 = Field(cfg.grid, cfg.A * cfg.kernel.f(cfg.grid.x))
    # the HJ scheme picks its own CFL step unless the config sets dt
    dt = cfg.solver.dt if "dt" in cfg.raw.get("solver", {}) else None
    sol = solve_constrained_hj(H, cfg.grid, u0, cfg.solver.t_end,
                               snapshots=cfg.solver.snapshot_times, dt=dt)
    out_io.write_hj_solution_csv(out, sol, cfg.stride)
    rows = [(t,) + zero_set_boundary(fld)
            + (inclusion_curves(H, cfg.A, t) if t > 0.0 else (0.0, 0.0))
            for t, fld in sol.snapshots]
    out_io.write_zeroset_csv(out, rows)
    _plot(cfg, out, "hj.svg", [("t=%g" % t, fld.grid.x, fld.values)
                               for t, fld in sol.snapshots[:5]],
          "constrained Hamilton-Jacobi solution", "x", "u")
    manifest = dict(cfg.kernel.manifest(), A=cfg.A)
    manifest.update(sol.meta)
    return manifest, None


def _do_hamiltonian(cfg, out):
    H = Hamiltonian(cfg.kernel)
    ps, Hs, lower, upper = hamiltonian_profile(H, cfg.A)
    out_io.write_hamiltonian_csv(out, ps, Hs, lower, upper)
    k_lo, k_hi = H.kappa_bounds(cfg.A)
    _plot(cfg, out, "hamiltonian.svg",
          [("H", ps, Hs), ("1+k_lo p^2", ps, lower),
           ("1+k_hi p^2", ps, upper)], "effective Hamiltonian", "p", "H")
    manifest = dict(cfg.kernel.manifest(), A=cfg.A, p_max=H.p_max,
                    p_table=H.p_table, kappa_lower=k_lo, kappa_upper=k_hi)
    return manifest, None


def _do_cross_validate(cfg, out):
    H = Hamiltonian(cfg.kernel)
    init = mutation_initial_data(cfg.kernel, cfg.grid, A=cfg.A)
    runs = _mutation_runs(cfg, out, init)
    sol = solve_constrained_hj(H, cfg.grid, init.u0, cfg.solver.t_end,
                               snapshots=cfg.solver.snapshot_times)
    out_io.write_hj_solution_csv(out, sol, cfg.stride)
    rows = cross_validate(runs, sol, cfg.compact)
    _plot(cfg, out, "crossval.svg",
          [("sup |u_eps - u|", [e for e, _ in rows], [v for _, v in rows])],
          "mutation runs vs the limit equation", "eps", "sup error")
    manifest = dict(runs[-1].run.manifest)
    manifest.update(sol.meta)
    return manifest, {"cross_validation": [
        {"eps": e, "sup_error": v} for e, v in rows]}


def _write_partial(out, partial, stride):
    """Write what an aborted march recorded; returns its manifest."""
    if partial is None:
        return {}
    if isinstance(partial, HJSolution):
        out_io.write_hj_solution_csv(out, partial, stride)
        return partial.meta
    out_io.write_snapshots(out, partial, stride)
    out_io.write_monitors(out, partial)
    return partial.manifest


_DISPATCH = {
    "KernelValidate": _do_kernel_validate,
    "Simulate": _do_simulate,
    "Front": _do_front,
    "HopfCole": _do_hopf_cole,
    "Mutation": _do_mutation,
    "HJ": _do_hj,
    "Hamiltonian": _do_hamiltonian,
    "CrossValidate": _do_cross_validate,
}


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="fatkpp",
        description="Fisher-KPP with fat-tailed dispersal: accelerating "
                    "fronts and constrained Hamilton-Jacobi limits.")
    ap.add_argument("--config", required=True, metavar="PATH",
                    help="JSON run configuration")
    ap.add_argument("--out", metavar="DIR", default=None,
                    help="output directory (overrides the config)")
    ap.add_argument("--quiet", action="store_true",
                    help="suppress the progress line on stdout")
    args = ap.parse_args(argv)

    try:
        cfg = parse_config(args.config)
    except IoError as exc:
        print("fatkpp: %s" % exc, file=sys.stderr)
        return 4
    except ParseError as exc:
        print("fatkpp: %s" % exc, file=sys.stderr)
        return 2
    except ValidationError as exc:
        print("fatkpp: invalid config:", file=sys.stderr)
        for issue in exc.issues:
            print("  - %s" % issue, file=sys.stderr)
        return 2

    out = args.out if args.out is not None else cfg.out_dir
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        print("fatkpp: cannot create %s: %s" % (out, exc),
              file=sys.stderr)
        return 4

    t0 = time.perf_counter()
    try:
        manifest, extra = _DISPATCH[cfg.experiment](cfg, out)
        out_io.write_run_json(out, cfg.raw, manifest, extra=extra)
    except _RUNTIME_ERRORS as exc:
        try:
            manifest = _write_partial(out, exc.run, cfg.stride)
            out_io.write_run_json(out, cfg.raw, manifest, aborted=True,
                                  abort_reason=str(exc))
        except IoError as io_exc:
            print("fatkpp: %s" % io_exc, file=sys.stderr)
            return 4
        print("fatkpp: aborted: %s" % exc, file=sys.stderr)
        return 3
    except _VALIDATION_ERRORS as exc:
        print("fatkpp: invalid parameters: %s" % exc, file=sys.stderr)
        return 2
    except IoError as exc:
        print("fatkpp: %s" % exc, file=sys.stderr)
        return 4
    if not args.quiet:
        print("fatkpp: %s finished in %.1fs, outputs in %s"
              % (cfg.experiment, time.perf_counter() - t0, out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
