"""CSV, manifest, and SVG writers.

Data files are deterministic: floats print as "%.17g" prints them (17
significant digits, so they re-parse to the exact same float64), rows
keep grid order, and no timestamps appear anywhere except run.json.

CSV cells are rendered by numpy a chunk of rows at a time, each cell a
row of a byte matrix padded with NUL bytes; joining a chunk's rows drops
the pads.  A float's 17 digits come from |v| * 10**(16 - E), formed in
double-double arithmetic from an exact table of powers of ten and then
rounded.  Python's "%.17g" renders the cells whose rounding that product
cannot certify (fraction within 1e-7 of one half), subnormals and |v|
outside [1e-280, 1e280].
Columns that several files or time blocks share (a snapshot set's x, a
long table's t and x) are rendered once per write.  SVG output follows
the same rules, so a repeated run produces byte-identical files.
"""

import contextlib
import functools
import itertools
import json
import math
import os
import time

import numpy as np

from .errors import IoError
from .propagation import potential_of

_KINDS = "fiubU"    # dtype kinds with a cell rule; write_csv refuses others
_CHUNK = 2048       # rows per rendered chunk; longer chunks only add memory
write_s = 0.0       # seconds spent writing files, CSV formatting included

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#17becf")


@contextlib.contextmanager
def _timed():
    """Add the time spent inside the block to write_s, raising or not."""
    global write_s
    t0 = time.perf_counter()
    try:
        yield
    finally:
        write_s += time.perf_counter() - t0


def _write_lines(path, lines, mode="w"):
    """Write an iterable of text lines (bytes with mode "wb"); OS failures
    raise IoError."""
    with _timed():
        try:
            with open(path, mode, newline=None if "b" in mode else "\n") as fh:
                fh.writelines(lines)
        except OSError as exc:
            raise IoError("cannot write %s: %s" % (path, exc))
    return path


# A float cell is a column of 29 byte slots: the sign, "0.000" (shown in
# part for 1e-5 <= |v| < 1), 18 slots for the 17 digits and the point,
# then "e", the exponent's sign and three exponent digits.  Unused slots
# hold NUL.
_WIDTH = 29
_KMAX = 300                                     # exponents -300..300
_J = np.arange(18, dtype=np.uint8)[:, None]     # digit and point slots
_SPECIAL = np.zeros((_WIDTH, 3), np.uint8)      # "0", "nan", "inf"
_SPECIAL[6:9] = np.frombuffer(b"0\0\0naninf", np.uint8).reshape(3, 3).T


@functools.lru_cache(maxsize=None)
def _tables():
    """Tables over the decimal exponent k = -_KMAX.._KMAX, built on first
    use.  Floats: hi, the double nearest 10**k; lo, the double nearest
    10**k - hi; hi's two 26-bit halves; the least double >= 10**k.
    Bytes for a value of exponent k: the digits before the point, the
    digits always shown, and the slots "0.000" and "e+ddd"."""
    num = np.empty((5, 2 * _KMAX + 1))
    for i, k in enumerate(range(-_KMAX, _KMAX + 1)):
        top, den = 10 ** max(k, 0), 10 ** max(-k, 0)
        m, n = (top / den).as_integer_ratio()    # int / int rounds exactly
        num[:2, i] = m / n, (top * n - m * den) / (den * n)
    c = 134217729.0 * num[0]                    # Dekker's split
    num[2] = c - (c - num[0])
    num[3] = num[0] - num[2]
    num[4] = np.where(num[1] > 0, np.nextafter(num[0], np.inf), num[0])
    k = np.arange(-_KMAX, _KMAX + 1)
    fixed, ak = (k >= -4) & (k < 17), np.abs(k)   # else exponent form
    ints, small, ex = fixed & (k >= 0), fixed & (k < 0), ~fixed
    form = np.array([
        np.where(ints, k + 1, np.where(fixed, 18, 1)), ints * (k + 1),
        small * 48, small * 46, (small & (k <= -2)) * 48,
        (small & (k <= -3)) * 48, (small & (k <= -4)) * 48,
        ex * 101, ex * np.where(k < 0, 45, 43),
        (ex & (ak >= 100)) * (48 + ak // 100),
        ex * (48 + ak // 10 % 10), ex * (48 + ak % 10)], np.uint8)
    return num, form


def _put(cells, where, texts):
    """Write Python-formatted texts into the chosen columns of a slot
    matrix."""
    cells[:, where] = np.array(texts, dtype="S%d" % _WIDTH).view(
        np.uint8).reshape(-1, _WIDTH).T


def _float_cells(v):
    """The "%.17g" texts of a float64 vector as a (29, n) slot matrix."""
    num, form = _tables()
    a = np.abs(v)
    fast = (a >= 1e-280) & (a <= 1e280)
    a[~fast] = 1.0
    # E = floor(log10 a): the estimate is never low, one exact test fixes it
    e = np.floor(np.log10(a) + 1e-10).astype(np.int16) + _KMAX
    e -= a < num[4].take(e)
    # a * 10**(16 - E) in [1e16, 1e17) as p + r, p an integer: with a
    # split in 26 and 27 bits every partial product is exact
    hi, lo, hh, hl = num[:4].take((16 + 2 * _KMAX) - e, axis=1)
    p = a * hi
    ah = (a.view(np.uint64) & ~np.uint64(2 ** 27 - 1)).view(np.float64)
    al = a - ah
    r = ((ah * hh - p) + ah * hl + al * hh) + al * hl
    r += a * lo
    f = np.floor(r)
    r -= f
    unsure = np.abs(r - 0.5) < 1e-7
    d = p.astype(np.int64) + (f + (r > 0.5)).astype(np.int64)
    carry = d == 10 ** 17                       # rounded up to 10**(E+1)
    d[carry] = 10 ** 16
    e += carry
    # the digits: buf[1:19] holds d // 10**9 and d % 10**9 as nine-digit
    # groups (the first digit a zero), between two NUL rows
    buf = np.zeros((20, len(v)), np.uint8)
    groups = np.empty((2, len(v)), np.uint32)
    groups[0] = d // 10 ** 9
    groups[1] = d - groups[0] * np.int64(10 ** 9)
    digits = buf[1:19].reshape(2, 9, len(v))
    for row in range(8, -1, -1):
        q = groups // 10
        np.subtract(groups, q * 10, out=digits[:, row], casting="unsafe")
        groups = q
    kept = ((buf[2:19] != 0) * _J[1:]).max(axis=0)     # no trailing zeros
    buf[2:19] += 48
    form = form.take(e, axis=1)
    point, shown = form[0], np.maximum(kept, form[1])
    # slot j < point holds digit j, slot point the ".", digit j - 1 after
    cells = np.empty((_WIDTH, len(v)), np.uint8)
    cells[0] = np.signbit(v) * np.uint8(45)
    cells[1:6] = form[2:7]
    body = cells[6:24]
    np.subtract(buf[2:], buf[1:19], out=body)
    body *= _J < point
    body += buf[1:19]
    body += (_J == point) * (46 - buf[1:19])
    body *= _J < shown + (shown > point)
    cells[24:] = form[7:]
    if not fast.all():
        odd = v[~fast]
        special = (odd == 0) | ~np.isfinite(odd)
        kind = np.where(odd[special] == 0, 0, 2 - np.isnan(odd[special]))
        at = np.flatnonzero(~fast)[special]
        cells[1:, at] = _SPECIAL[1:, kind]
        cells[0, at] *= kind != 1                   # nan has no sign
        unsure[~fast] = ~special
    if unsure.any():
        _put(cells, unsure, [b"%.17g" % x for x in v[unsure].tolist()])
    return cells


def _int_cells(values):
    """The "%d" texts of an integer or bool vector as a (1 + digits, n)
    slot matrix."""
    if values.dtype.kind == "u":
        m = values.astype(np.uint64)
    else:           # abs(-2**63) wraps to -2**63, which is 2**63 unsigned
        m = np.abs(values.astype(np.int64)).view(np.uint64)
    width = len(str(int(m.max(initial=0))))
    cells = np.empty((1 + width, len(m)), np.uint8)
    cells[0] = (values < 0) * np.uint8(45)
    for row in range(width, 0, -1):         # no leading zeros
        q = m // 10
        cells[row] = (m - q * 10 + 48) * ((m > 0) | (row == width))
        m = q
    return cells


def _cells(values):
    """A column's cells as an (n, width) byte matrix padded with NUL:
    floats as "%.17g", integers and bools as "%d", strings in UTF-8 (four
    bytes a character, so every chunk of a column is as wide)."""
    if values.dtype.kind == "f":
        return _float_cells(values.astype(np.float64)).T
    if values.dtype.kind != "U":
        return _int_cells(values).T
    cells = np.zeros((len(values), values.itemsize), np.uint8)
    codes = np.ascontiguousarray(values).view(np.uint32).reshape(
        len(values), values.itemsize // 4)
    if codes.max(initial=0) < 128:
        cells[:, :codes.shape[1]] = codes
    else:
        text = np.char.encode(values, "utf-8")
        cells[:, :text.itemsize] = text.view(np.uint8).reshape(
            len(values), text.itemsize)
    return cells


def _render(values):
    """A whole column's cells as one byte matrix, a chunk at a time, less
    the slots that no cell uses."""
    values = np.asarray(values)
    cells = np.concatenate([_cells(values[lo:lo + _CHUNK]) for lo in range(
        0, len(values), _CHUNK)] or [_cells(values)])
    return cells[:, cells.any(axis=0)]


class Column:
    """A column in consecutive blocks of rows (one per time in a long
    table).  A block is an array of cells or, two-dimensional, a byte
    matrix of rendered cells (from _render, a row per cell)."""

    def __init__(self, blocks):
        self.blocks = [np.asarray(b) for b in blocks]

    def __len__(self):
        return sum(map(len, self.blocks))


def _chunks(columns):
    """The rows of Columns with equal blocks as CSV bytes, a string per
    chunk of rows."""
    for block in zip(*(c.blocks for c in columns)):
        for lo in range(0, len(block[0]), _CHUNK):
            cells = [b[lo:lo + _CHUNK] if b.ndim == 2 else
                     _cells(b[lo:lo + _CHUNK]) for b in block]
            ends = np.cumsum([c.shape[1] + 1 for c in cells])
            rows = np.empty((len(cells[0]), ends[-1]), np.uint8)
            for c, end in zip(cells, ends):
                rows[:, end - 1 - c.shape[1]:end - 1] = c
            rows[:, ends - 1] = [44] * (len(ends) - 1) + [10]   # "," "\n"
            yield rows.tobytes().translate(None, b"\0")


def write_csv(path, header, columns):
    """Write equal-length columns (cells or Columns) under a header."""
    columns = [c if isinstance(c, Column) else Column([c]) for c in columns]
    for c in columns:
        sizes = [list(map(len, x.blocks)) for x in (c, columns[0])]
        if sizes[0] != sizes[1]:
            raise IoError("column lengths disagree: %s vs %s" % tuple(sizes))
        for b in c.blocks:
            if b.ndim == 1 and b.dtype.kind not in _KINDS:
                raise IoError("cannot write %s: no cell format for dtype %s"
                              % (path, b.dtype))
    return _write_lines(path, itertools.chain(
        [(",".join(header) + "\n").encode()], _chunks(columns)), "wb")


def write_rows(path, header, rows):
    """Write a table given row by row (an empty table keeps its header)."""
    columns = list(zip(*rows)) if rows else [[]] * len(header)
    return write_csv(path, header, columns)


def write_snapshots(outdir, run, stride=1):
    """snapshot_t<time>.csv per snapshot, x rendered once; returns paths."""
    x = run.grid.x[::stride]
    with _timed():
        xs = _render(x)
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
    with _timed():
        ts = _render([t for t, _ in rows])
        x_cells = _render(xs)
    return write_csv(path, ("t", "x") + tuple(names), [
        Column(np.broadcast_to(t, (len(xs), t.size)) for t in ts),
        Column([x_cells] * len(rows))] + [
        Column(col) for col in zip(*(v for _, v in rows))])


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
    keep = np.sort(order[np.concatenate((first, last))])
    keep = keep[np.diff(keep, prepend=-1) > 0]  # np.unique loads numpy.ma
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
