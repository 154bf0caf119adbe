"""Command line entry point.

    fatkpp --config <path> [--out <dir>] [--quiet]

One experiment per invocation, named in the JSON config.  It exits 0 on
success and otherwise with the code its error's class owns (see
`errors`).  A failure after the output directory exists keeps the files
already written, writes the partial run an aborted march carries with
the writer of its experiment, and leaves run.json with the abort flag
and reason set.  CrossValidate reports its sup errors in run.json and
makes no verdict on them: a sup error that grows as eps falls still
exits 0.

CrossValidate solves the Hamilton-Jacobi limit on one worker thread while
its rescaled runs step on the main thread, which alone writes files.  Each
run is written as it ends and then dropped but for its window potential
(`propagation.read_window`), which `hj.cross_validate` compares with the
limit.  Aborts end as in a sequential run: a run that aborts propagates once
the worker is joined, and the limit is discarded; a limit solve that fails
surfaces, with its partial solution, only after every run is written.
"""

import argparse
import math
import os
import resource
import sys
import time
from dataclasses import asdict

from .cauchy import initial_condition, run as run_cauchy
from .config import READS, parse_config
from .errors import FatKppError, IoError, ValidationError
from .gridops import discretize_kernel
from .hj import (HJSolution, Hamiltonian, comparison_times, cross_validate,
                 hamiltonian_profile, inclusion_curves, solve_constrained_hj,
                 window_nodes, zero_set_boundary)
from .kernels import validate_hypotheses
from .mutation import classify_limit_sets, mutation_initial_data, \
    mutation_run
from .propagation import (envelope_sandwich_report, hopf_cole_field,
                          potential_of, read_window, track_level)
from . import output as out_io

_MAX_SERIES = 5         # density curves in one plot


def _simulate(cfg, dk=None):
    return run_cauchy(cfg.kernel, cfg.solver,
                      initial_condition(cfg.kernel, cfg.grid, cfg.C), dk=dk)


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
    sim = _simulate(cfg, dk)
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
    sup, floored = {}, {}
    es = sorted(cfg.eps_list, reverse=True)
    for eps in es:
        hc = hopf_cole_field(sim, eps, cfg.compact[:2], cfg.compact[2:])
        out_io.write_hopfcole_csv(out, hc)
        sup["%g" % eps] = hc.sup_error()
        floored["%g" % eps] = int(hc.floored.sum())
    _plot(cfg, out, "hopfcole.svg",
          [("sup |u_eps - u|", es, [sup["%g" % e] for e in es])],
          "rescaled density vs its limit", "eps", "sup error")
    return dict(sim.manifest, hopf_cole_sup_errors=sup,
                hopf_cole_floored=floored), None


def _mutation_runs(cfg, out, u0, keep):
    """keep(run) of one rescaled run per eps, largest first, each run
    written as it ends."""
    kept = []
    for eps in sorted(cfg.eps_list, reverse=True):
        run = mutation_run(cfg.kernel, eps, cfg.solver, u0)
        out_io.write_mutation_csv(out, run, cfg.stride)
        kept.append(keep(run))
        del run         # what keep left out goes before the next run steps
    return kept


def _do_mutation(cfg, out):
    u0 = mutation_initial_data(cfg.kernel, cfg.grid, A=cfg.A)
    # only the last run, of the smallest eps, is read
    small = _mutation_runs(cfg, out, u0, keep=lambda run: (
        run if run.eps == min(cfg.eps_list) else None))[-1]
    tol = 2.0 * small.eps * math.log(4.0)
    us = [(t, potential_of(fld.values, small.eps)[0])
          for t, fld in small.snapshots]
    out_io.write_limits_csv(out, cfg.grid, [
        (t, classify_limit_sets(u, tol)) for t, u in us], cfg.stride)
    t_last, u_last = us[-1]
    _plot(cfg, out, "mutation.svg",
          [("u_eps%g, t=%g" % (small.eps, t_last), cfg.grid.x, u_last)],
          "rescaled potential", "x", "u")
    return dict(small.manifest, eps_list=sorted(cfg.eps_list, reverse=True),
                limits_eps=small.eps, limits_tol=tol), None


def _do_hj(cfg, out):
    H = Hamiltonian(cfg.kernel)
    u0 = mutation_initial_data(cfg.kernel, cfg.grid, A=cfg.A)
    sol = solve_constrained_hj(H, cfg.solver, u0)
    out_io.write_hj_solution_csv(out, sol, cfg.stride)
    rows = [(t,) + zero_set_boundary(fld)
            + (inclusion_curves(H, cfg.A, t) if t > 0.0 else (0.0, 0.0))
            for t, fld in sol.snapshots]
    out_io.write_zeroset_csv(out, rows)
    _plot(cfg, out, "hj.svg", _snapshot_series(sol.snapshots),
          "constrained Hamilton-Jacobi solution", "x", "u")
    return dict(cfg.kernel.manifest(), **sol.meta), None


def _do_hamiltonian(cfg, out):
    H = Hamiltonian(cfg.kernel)
    ps, Hs, lower, upper = hamiltonian_profile(H, cfg.A)
    out_io.write_hamiltonian_csv(out, ps, Hs, lower, upper)
    k_lo, k_hi = H.kappa_bounds(cfg.A)
    _plot(cfg, out, "hamiltonian.svg",
          [("H", ps, Hs), ("1+k_lo p^2", ps, lower),
           ("1+k_hi p^2", ps, upper)], "effective Hamiltonian", "p", "H")
    return dict(cfg.kernel.manifest(), p_max=H.p_max, p_table=H.p_table,
                kappa_lower=k_lo, kappa_upper=k_hi), None


def _do_cross_validate(cfg, out):
    # imported here: it loads logging, about 10 ms and 0.8 MB that the
    # experiments without a thread would pay at start-up
    from concurrent.futures import ThreadPoolExecutor
    H = Hamiltonian(cfg.kernel)
    u0 = mutation_initial_data(cfg.kernel, cfg.grid, A=cfg.A)
    xs = window_nodes(cfg.grid, cfg.compact)
    pairs = comparison_times(cfg.solver.snapshot_times)
    # the limit needs none of the runs, so it is solved on a second thread
    # while they step; of each run only its window potential is kept
    with ThreadPoolExecutor(max_workers=1) as pool:
        solve = pool.submit(solve_constrained_hj, H, cfg.solver, u0)
        kept = _mutation_runs(cfg, out, u0, keep=lambda run: (
            read_window(run, run.eps, xs, xs, pairs), run.manifest))
        sol = solve.result()
    out_io.write_hj_solution_csv(out, sol, cfg.stride)
    sups = cross_validate([pot for pot, _ in kept], sol)    # in kept's order
    rows = [{"eps": eps, "sup_error": sup, "floored": int(pot.floored.sum()),
             "wall_time_s": man["wall_time_s"]}
            for (eps, sup), (pot, man) in zip(sups, kept)]
    _plot(cfg, out, "crossval.svg",
          [("sup |u_eps - u|", [r["eps"] for r in rows],
            [r["sup_error"] for r in rows])],
          "mutation runs vs the limit equation", "eps", "sup error")
    return dict(kept[-1][1], **sol.meta), {"cross_validation": rows}


def _write_partial(out, partial, cfg):
    """Write what an aborted march recorded with the writer of its kind;
    returns its manifest."""
    if partial is None:
        return {}
    if isinstance(partial, HJSolution):
        out_io.write_hj_solution_csv(out, partial, cfg.stride)
        return partial.meta
    _, _, rescaled, _ = READS[cfg.experiment]
    if rescaled:                # a mutation run, eps = 1 included
        out_io.write_mutation_csv(out, partial, cfg.stride)
    else:
        out_io.write_snapshots(out, partial, cfg.stride)
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


def _peak_rss_mb():
    """The process's peak resident size so far, in MB (ru_maxrss counts
    KB on Linux and bytes on macOS)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1 << 20 if sys.platform == "darwin" else 1 << 10)


def _fail(exc):
    """Print why the invocation failed; returns exc's exit code."""
    if isinstance(exc, ValidationError):
        print("fatkpp: invalid config:", *("  - %s" % i for i in exc.issues),
              sep="\n", file=sys.stderr)
    else:
        print("fatkpp: %s%s" % (exc.label, exc), file=sys.stderr)
    return exc.exit_code


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
        out = args.out if args.out is not None else cfg.out_dir
        try:
            os.makedirs(out, exist_ok=True)
        except OSError as exc:
            raise IoError("cannot create %s: %s" % (out, exc))
    except FatKppError as exc:
        return _fail(exc)

    t0, w0 = time.perf_counter(), out_io.write_s
    abort = extra = None
    try:
        manifest, extra = _DISPATCH[cfg.experiment](cfg, out)
    except FatKppError as exc:
        abort = exc
    try:
        if abort is not None:
            manifest = _write_partial(out, abort.run, cfg)
        if cfg.A is not None:   # an experiment that reads A records it
            manifest = dict(manifest, A=cfg.A)
        out_io.write_run_json(
            out, cfg.raw, manifest, aborted=abort is not None,
            abort_reason=None if abort is None else str(abort),
            extra=dict(extra or {}, write_s=out_io.write_s - w0,
                       peak_rss_mb=_peak_rss_mb()))
    except IoError as exc:
        return _fail(exc)
    if abort is not None:
        return _fail(abort)
    if not args.quiet:
        print("fatkpp: %s finished in %.1fs, outputs in %s"
              % (cfg.experiment, time.perf_counter() - t0, out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
