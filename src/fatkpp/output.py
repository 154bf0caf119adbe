"""CSV, manifest, and SVG writers.

Data files are deterministic: floats print with 17 significant digits
(so they re-parse to the exact same float64), rows keep grid order, and
no timestamps appear anywhere except run.json.  CSV rows are formatted
in chunks of rows, each chunk by one %-template of per-column formats.
Columns that several files or time blocks share (a snapshot set's x, a
long table's t and x) are rendered once per write and spliced into the
templates as text.  SVG output follows the same rules, so a repeated
run produces byte-identical files.
"""

import contextlib
import itertools
import json
import math
import os
import time

import numpy as np

from .errors import IoError
from .propagation import potential_of

FLOAT_FMT = "%.17g"
# cell formats by dtype kind; write_csv refuses columns of any other kind
_FORMATS = {"f": FLOAT_FMT, "i": "%d", "u": "%d", "b": "%d", "U": "%s"}
_CHUNK = 2048       # rows per template; longer chunks only add memory
write_s = 0.0       # seconds spent writing files, CSV formatting included

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#17becf")


@contextlib.contextmanager
def _timed():
    """Add the time spent inside the block to write_s."""
    global write_s
    t0 = time.perf_counter()
    yield
    write_s += time.perf_counter() - t0


def _write_lines(path, lines):
    """Write an iterable of text lines; OS failures raise IoError."""
    with _timed():
        try:
            with open(path, "w", newline="\n") as fh:
                fh.writelines(lines)
        except OSError as exc:
            raise IoError("cannot write %s: %s" % (path, exc))
    return path


class Column:
    """A column in consecutive blocks of rows (one per time in a long
    table).  A block is an array of cells, a _render list (cells as text,
    a line each, a string per _CHUNK rows; one such column per table) or
    a str (one rendered cell on every row).  Text is copied verbatim."""

    def __init__(self, blocks, rows):
        self.blocks = [b if isinstance(b, (list, str)) else np.asarray(b)
                       for b in blocks]
        self.rows = list(rows)

    def __len__(self):
        return sum(self.rows)


def _chunks(columns):
    """The rows of Columns with equal blocks as text, a string per chunk."""
    for b, size in enumerate(columns[0].rows if columns else ()):
        blocks = [c.blocks[b] for c in columns]
        text = [x for x in blocks if isinstance(x, list)]
        row = ",".join("\0" if isinstance(x, list)   # the rendered lines
                       else x.replace("%", "%%") if isinstance(x, str)
                       else _FORMATS[x.dtype.kind] for x in blocks)
        pre, _, post = (row + "\n").partition("\0")
        for j, lo in enumerate(range(0, size, _CHUNK)):
            lines = text[0][j] if text else "\n" * min(_CHUNK, size - lo)
            # each line becomes pre + cell + post; the last pre is cut
            tpl = pre + lines.replace("%", "%%").replace("\n", post + pre)
            cells = [x[lo:lo + _CHUNK].tolist() for x in blocks
                     if isinstance(x, np.ndarray)]
            yield (tpl[:len(tpl) - len(pre)]
                   % tuple(itertools.chain.from_iterable(zip(*cells))))


def _render(values):
    """A column's cells as Column text, formatted as write_csv would."""
    return list(_chunks([Column([np.asarray(values)], [len(values)])]))


def write_csv(path, header, columns):
    """Write equal-length columns (cells or Columns) under a header."""
    columns = [c if isinstance(c, Column) else
               Column([np.asarray(c)], [len(c)]) for c in columns]
    for c in columns:
        if c.rows != columns[0].rows:
            raise IoError("column lengths disagree: %s vs %s"
                          % (c.rows, columns[0].rows))
        for b in c.blocks:
            if isinstance(b, np.ndarray) and b.dtype.kind not in _FORMATS:
                raise IoError("cannot write %s: no cell format for dtype %s"
                              % (path, b.dtype))
    return _write_lines(path, itertools.chain(
        [",".join(header) + "\n"], _chunks(columns)))


def write_rows(path, header, rows):
    """Write a table given row by row (an empty table keeps its header)."""
    columns = list(zip(*rows)) if rows else [[]] * len(header)
    return write_csv(path, header, columns)


def write_snapshots(outdir, run, stride=1):
    """snapshot_t<time>.csv per snapshot, x rendered once; returns paths."""
    x = run.grid.x[::stride]
    with _timed():
        xs = Column([_render(x)], [len(x)])
    return [write_csv(os.path.join(outdir, "snapshot_t%g.csv" % t),
                      ("x", "n"), (xs, fld.values[::stride]))
            for t, fld in run.snapshots]


def write_monitors(outdir, run):
    return write_csv(os.path.join(outdir, "monitors.csv"),
                     tuple(run.monitors), tuple(run.monitors.values()))


def write_front_csv(outdir, tracks, kernel):
    """All level tracks in one table against the front law columns."""
    rows = []
    for tr in tracks:
        for i, t in enumerate(tr.times):
            x = tr.positions[i]
            ratio = (kernel.f(x) / t if math.isfinite(x) and t > 0.0
                     else float("nan"))
            rows.append((t, tr.level, x, tr.predicted[i], ratio,
                         tr.garnier_lo[i], tr.garnier_hi[i]))
    return write_rows(os.path.join(outdir, "front.csv"),
                      ("t", "level", "x_level", "f_inv_t", "ratio_f_over_t",
                       "garnier_lo", "garnier_hi"), rows)


def write_envelope_csv(outdir, rows):
    """rows: (t, theta_hat, lo_violation, hi_violation) per snapshot."""
    return write_rows(os.path.join(outdir, "envelope.csv"),
                      ("t", "theta_hat", "sandwich_lo_violation",
                       "sandwich_hi_violation"), rows)


def write_long_csv(path, names, xs, rows):
    """Long-format table: a (t, x, values...) row per time and x.

    rows holds one (t, value arrays over xs) pair per time, the arrays in
    the order of names; rows keep time order, then x order.  The x column
    is rendered once, each t once per time block.
    """
    sizes = [len(xs)] * len(rows)
    with _timed():
        ts = "".join(_render([t for t, _ in rows])).split("\n")[:-1]
        x_text = _render(xs)
    return write_csv(path, ("t", "x") + tuple(names), [
        Column(ts, sizes), Column([x_text] * len(rows), sizes)] + [
        Column(col, map(len, col)) for col in zip(*(v for _, v in rows))])


def write_hopfcole_csv(outdir, hc):
    """One rescaled field: rows are the (t, x) product in grid order."""
    err = np.abs(hc.u - hc.limit)
    return write_long_csv(os.path.join(outdir, "hopfcole_eps%g.csv" % hc.eps),
                          ("u_eps", "u_limit", "abs_err"), hc.xs,
                          list(zip(hc.times, zip(hc.u, hc.limit, err))))


def write_mutation_csv(outdir, run, stride=1):
    """Density and potential per snapshot of one small-eps run."""
    rows = []
    for t, fld in run.snapshots:
        n = fld.values[::stride]
        u, floored = potential_of(n, run.eps)
        rows.append((t, (n, u, floored.astype(int))))
    return write_long_csv(os.path.join(outdir, "mutation_eps%g.csv"
                                       % run.eps),
                          ("n_eps", "u_eps", "floored_flag"),
                          run.grid.x[::stride], rows)


def write_limits_csv(outdir, grid, labelled, stride=1):
    """labelled: (t, regions) pairs, regions a length-N character array."""
    return write_long_csv(os.path.join(outdir, "limits.csv"), ("region",),
                          grid.x[::stride],
                          [(t, (np.asarray(r)[::stride],))
                           for t, r in labelled])


def write_hj_solution_csv(outdir, sol, stride=1):
    return write_long_csv(os.path.join(outdir, "hj_solution.csv"), ("u",),
                          sol.grid.x[::stride],
                          [(t, (fld.values[::stride],))
                           for t, fld in sol.snapshots])


def write_hamiltonian_csv(outdir, ps, Hs, lower, upper):
    return write_csv(os.path.join(outdir, "hamiltonian.csv"),
                     ("p", "H", "H_lower_env", "H_upper_env"),
                     (ps, Hs, lower, upper))


def write_zeroset_csv(outdir, rows):
    """rows: (t, left, right, example_lo, example_hi) per snapshot."""
    return write_rows(os.path.join(outdir, "zeroset.csv"),
                      ("t", "x_boundary_left", "x_boundary_right",
                       "example_lo", "example_hi"), rows)


def _json_default(v):
    if isinstance(v, (np.generic, np.ndarray)):
        return v.tolist()           # numpy scalars become Python scalars
    raise TypeError("not JSON serializable: %r" % type(v))


def write_run_json(outdir, config_raw, manifest, aborted=False,
                   abort_reason=None, extra=None):
    """The run manifest; the only file that carries a timestamp."""
    doc = {
        "config": config_raw,
        "manifest": manifest,
        "aborted": bool(aborted),
        "abort_reason": abort_reason,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    if extra:
        doc.update(extra)
    return _write_lines(os.path.join(outdir, "run.json"),
                        [json.dumps(doc, indent=2, sort_keys=True,
                                    default=_json_default), "\n"])


# ----------------------------------------------------------------------
# SVG plots
# ----------------------------------------------------------------------

_W, _H = 640, 440
_ML, _MR, _MT, _MB = 64, 16, 28, 44


def _scale(v, lo, hi, a, b):
    return a + (v - lo) * (b - a) / (hi - lo)


def _thin(xs, ys, cols, width):
    """Keep the min and the max point of each pixel column, in x order.

    cols are the points' pixel offsets from the plot's left edge; a series
    of at most two points per column of the plot width passes unchanged.
    """
    if xs.size <= 2 * width:
        return xs, ys
    col = np.clip(cols.astype(int), 0, width - 1)
    order = np.lexsort((ys, col))           # by column, then by y
    first = np.flatnonzero(np.diff(col[order], prepend=-1))
    last = np.append(first[1:], order.size) - 1
    keep = np.unique(order[np.concatenate((first, last))])
    keep = keep[np.argsort(xs[keep], kind="stable")]
    return xs[keep], ys[keep]


def emit_svg_plot(path, series, title="", xlabel="", ylabel="",
                  logy=False):
    """Line plot of (label, x, y) triples as a standalone SVG.

    Non-finite points are dropped per series (with logy, so are y <= 0).
    A series left with a single point draws a circle marker instead of a
    line; a longer one is thinned to the lowest and highest point of each
    pixel column.  If nothing at all survives, IoError is raised and no
    file is created.  Output depends only on the inputs, never on the
    clock.
    """
    clean = []
    for label, xs, ys in series:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        keep = np.isfinite(xs) & np.isfinite(ys)
        if logy:
            keep &= ys > 0.0
        if np.any(keep):
            yy = np.log10(ys[keep]) if logy else ys[keep]
            clean.append((str(label), xs[keep], yy))
    if not clean:
        raise IoError("nothing to plot: every series is empty")

    xlo = min(float(np.min(xs)) for _, xs, _ in clean)
    xhi = max(float(np.max(xs)) for _, xs, _ in clean)
    ylo = min(float(np.min(ys)) for _, _, ys in clean)
    yhi = max(float(np.max(ys)) for _, _, ys in clean)
    if xhi <= xlo:
        xlo, xhi = xlo - 0.5, xhi + 0.5
    if yhi <= ylo:
        ylo, yhi = ylo - 0.5, yhi + 0.5
    pad = 0.04 * (yhi - ylo)
    ylo, yhi = ylo - pad, yhi + pad

    x0, x1 = _ML, _W - _MR
    y0, y1 = _H - _MB, _MT

    def px(v):
        return _scale(v, xlo, xhi, x0, x1)

    def py(v):
        return _scale(v, ylo, yhi, y0, y1)

    out = []
    out.append('<svg xmlns="http://www.w3.org/2000/svg" width="%d" '
               'height="%d" viewBox="0 0 %d %d">' % (_W, _H, _W, _H))
    out.append('<rect width="%d" height="%d" fill="white"/>' % (_W, _H))
    out.append('<g font-family="sans-serif" font-size="12" fill="black">')
    if title:
        out.append('<text x="%d" y="18" text-anchor="middle" '
                   'font-size="14">%s</text>' % ((_ML + _W - _MR) // 2,
                                                 _esc(title)))
    # axes
    out.append('<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>'
               % (x0, y0, x1, y0))
    out.append('<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>'
               % (x0, y0, x0, y1))
    for tv in np.linspace(xlo, xhi, 5):
        xpix = px(tv)
        out.append('<line x1="%.2f" y1="%d" x2="%.2f" y2="%d" '
                   'stroke="black"/>' % (xpix, y0, xpix, y0 + 5))
        out.append('<text x="%.2f" y="%d" text-anchor="middle">%s</text>'
                   % (xpix, y0 + 18, "%.4g" % tv))
    for tv in np.linspace(ylo, yhi, 5):
        ypix = py(tv)
        out.append('<line x1="%d" y1="%.2f" x2="%d" y2="%.2f" '
                   'stroke="black"/>' % (x0 - 5, ypix, x0, ypix))
        lab = "%.3g" % (10.0 ** tv) if logy else "%.4g" % tv
        out.append('<text x="%d" y="%.2f" text-anchor="end" '
                   'dominant-baseline="middle">%s</text>'
                   % (x0 - 8, ypix, lab))
    if xlabel:
        out.append('<text x="%d" y="%d" text-anchor="middle">%s</text>'
                   % ((x0 + x1) // 2, _H - 8, _esc(xlabel)))
    if ylabel:
        out.append('<text x="14" y="%d" text-anchor="middle" '
                   'transform="rotate(-90 14 %d)">%s</text>'
                   % ((y0 + y1) // 2, (y0 + y1) // 2, _esc(ylabel)))

    for k, (label, xs, ys) in enumerate(clean):
        color = _PALETTE[k % len(_PALETTE)]
        if xs.size == 1:
            out.append('<circle cx="%.2f" cy="%.2f" r="3" fill="%s"/>'
                       % (px(xs[0]), py(ys[0]), color))
        else:
            xs, ys = _thin(xs, ys, px(xs) - x0, x1 - x0)
            pts = " ".join("%.2f,%.2f" % (px(a), py(b))
                           for a, b in zip(xs, ys))
            out.append('<polyline fill="none" stroke="%s" '
                       'stroke-width="1.5" points="%s"/>' % (color, pts))
        ly = _MT + 14 + 16 * k
        out.append('<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="%s" '
                   'stroke-width="1.5"/>' % (x1 - 150, ly - 4, x1 - 130,
                                             ly - 4, color))
        out.append('<text x="%d" y="%d">%s</text>'
                   % (x1 - 124, ly, _esc(label)))
    out.append('</g>')
    out.append('</svg>')
    return _write_lines(path, (line + "\n" for line in out))


def _esc(s):
    return (s.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))
