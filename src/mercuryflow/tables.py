"""Precomputed mmse tables: forward/inverse evaluation and the mercury factor.

A :class:`MmseTable` materializes ``snr -> (mmse, mi)`` for one constellation
on a log-spaced grid (snr = 0 anchor plus points in [1e-3, snr_max]).  Both
values and exact derivatives are stored, so evaluation uses cubic Hermite
interpolation of ``log mmse`` (relative accuracy is uniform across the
exponential tail) and the inverse is the numerical inverse of that
interpolant: an inverse cubic Hermite seed on the query's cell, then two
Newton steps, over a packed bank so one pass inverts every stream of an
epoch.  Forward-then-invert round trips are therefore consistent to near
machine precision, which is what the downstream water-level solver leans on.

Construction detail: the cheap vectorized Gauss-Hermite sweep is used only on
the snr prefix where it agrees with the exact pairwise-boundary rule (probed
at build time); the pairwise rule covers the rest.  A build runs on a thread
pool with one worker per usable CPU: the exact probes and the GH probe sweeps,
then the pairwise tail and the GH grid sweeps.  The build maps one
workspace of twice ``WORKSPACE`` (2.5e5) elements as anonymous memory
and unmaps it when it ends, so the OS gets the pages back; each worker thread
owns one share of it and computes every job it runs in place there (a GH point
larger than a share is split along Q/2), so block memory does not grow with
the CPU count.  Every point is computed alone and every sum runs in order
along one row, or in a row's order, so the tables are the same bytes for any
worker count, chunk or block size.  The stored grid is truncated where mmse
falls below a positivity floor -- double precision cannot represent the tail
of e.g. BPSK anywhere near snr = 1e4 -- so a pairwise run stops at its first
point below it, and inversion below the stored floor raises
:class:`TableRangeError` rather than extrapolating.

Gaussian-input tables bypass interpolation entirely: mmse = 1/(1+snr),
inverse = 1/psi - 1, mercury factor identically 1.
"""

from __future__ import annotations

import functools
import math
import mmap
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from ._textout import emit
from .constellations import WORKSPACE, Constellation, _gh_mmse_grid, _pairwise_mmse
from .errors import InvalidInputError, TableBuildError, TableRangeError, _integer, _real, _reals

__all__ = ["MmseTable", "build_table", "table_for", "clear_cache"]

DEFAULT_SNR_MAX = 1.0e4
DEFAULT_N_POINTS = 2048

# Smallest mmse kept in a table; below this the tail is numerically
# meaningless in double precision (and useless for power allocation).
MMSE_FLOOR = 1.0e-250

_LN2 = math.log(2.0)
# the packed inverse's constants as 0-d arrays, which numpy applies faster than floats
_MINUS_ONE, _ZERO, _HALF, _ONE, _THREE = (np.array(c) for c in (-1.0, 0.0, 0.5, 1.0, 3.0))

# an .npz snapshot stores a table's three checked arrays; its record adds the two it derives
_STORED = ("snr_grid", "mmse_values", "dlog_mmse")
_ARRAYS = ("snr_grid", "mmse_values", "mi_values", "log_mmse", "dlog_mmse")


def _query(name: str, strict: bool):
    """Decorate a map of ``(obj, x, ...)`` with the array rule ``errors._reals``: the map gets
    ``x`` as a 1-d float array, and a scalar ``x`` gets a float back."""
    def deco(fn):
        @functools.wraps(fn)
        def checked(obj, x, *rest, **kw):
            out = fn(obj, np.atleast_1d(_reals(x, name, strict)), *rest, **kw)
            return float(out[0]) if np.isscalar(x) else out
        return checked
    return deco


def _hermite_eval(x, xs, ys, ds):
    """Cubic Hermite evaluation with exact node derivatives.

    ``xs`` strictly increasing; queries must lie within [xs[0], xs[-1]].
    """
    idx = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, xs.size - 2)
    h = xs[idx + 1] - xs[idx]
    t = (x - xs[idx]) / h
    y0, y1 = ys[idx], ys[idx + 1]
    d0, d1 = ds[idx] * h, ds[idx + 1] * h
    t2 = t * t
    t3 = t2 * t
    return (
        (2.0 * t3 - 3.0 * t2 + 1.0) * y0
        + (t3 - 2.0 * t2 + t) * d0
        + (-2.0 * t3 + 3.0 * t2) * y1
        + (t3 - t2) * d1
    )


# compared and hashed by identity, so a tuple of tables keys the bank cache
@dataclass(frozen=True, eq=False)
class MmseTable:
    """Monotone (snr -> mmse, mi) grid for one constellation, invertible.

    Built from the three arrays it checks, raising :class:`TableBuildError` on any
    fault; it derives ``log_mmse`` and ``mi_values`` (the integral of mmse/2, in bits).
    """

    constellation: Constellation
    snr_grid: NDArray[np.float64]
    mmse_values: NDArray[np.float64]
    dlog_mmse: NDArray[np.float64]  # d(log mmse)/d snr, exact at the nodes
    snr_max_requested: float
    mi_values: NDArray[np.float64] = field(init=False)
    log_mmse: NDArray[np.float64] = field(init=False)

    def __post_init__(self):
        label, arrays = self.label, [np.asarray(getattr(self, f)) for f in _STORED]
        grid, mmse, dlog = arrays
        if grid.ndim != 1 or grid.size < 2 or any(
                a.dtype != np.float64 or a.shape != grid.shape for a in arrays):
            got = ", ".join(f"{a.dtype} {a.shape}" for a in arrays)
            raise TableBuildError(f"{label}: a table needs three float64 arrays of one length "
                                  f">= 2, got {got}")
        _refuse(label, "snr grid not finite and increasing from 0",
                ~np.isfinite(grid) | np.r_[grid[0] != 0.0, grid[1:] <= grid[:-1]])
        _refuse(label, "d log mmse/d snr not finite and <= 0", ~(np.isfinite(dlog) & (dlog <= 0.0)))
        _verify_grid(grid, mmse, label)
        log = np.log(mmse)
        if self.is_gaussian:
            mi = 0.5 * np.log2(1.0 + grid)
        else:
            mi = _integrate_mi(grid, log, dlog)
            _refuse(label, "mutual information decreases", ~(np.diff(mi) >= -1e-12))   # NaN too
            mi = np.minimum(np.maximum.accumulate(mi), self.constellation.max_information_bits())
        for name, a in zip(_ARRAYS, (grid, mmse, mi, log, dlog)):
            object.__setattr__(self, name, a)

    @property
    def label(self) -> str:
        return self.constellation.label

    @property
    def is_gaussian(self) -> bool:
        return self.constellation.is_gaussian

    @property
    def snr_top(self) -> float:
        return float(self.snr_grid[-1])

    @property
    def mmse_floor(self) -> float:
        """Smallest mmse on the table's grid; a finite table's inverse errors out below it."""
        return float(self.mmse_values[-1])

    # -- forward maps --------------------------------------------------

    @_query("snr", strict=False)
    def mmse_at(self, snr):
        """Interpolated mmse; scalar in, scalar out (arrays pass through)."""
        if self.is_gaussian:
            return 1.0 / (1.0 + snr)
        if np.any(self._past_top(snr)):
            raise TableRangeError(
                f"snr {float(snr.max())!r} beyond the {self.label} table top "
                f"{self.snr_top!r}, where the table's snr_max or the {MMSE_FLOOR:g} mmse "
                "floor ends its grid"
            )
        return np.exp(_hermite_eval(np.minimum(snr, self.snr_top),
                                    self.snr_grid, self.log_mmse, self.dlog_mmse))

    def _past_top(self, s):
        """Mask of finite snr values beyond the modeled range; none for Gaussian."""
        if self.is_gaussian:
            return np.zeros(np.shape(s), dtype=bool)
        return np.isfinite(s) & (s > self.snr_top * (1.0 + 1e-12))

    @_query("snr", strict=False)
    def mi_at(self, snr):
        """Interpolated mutual information in bits; saturates past the grid top."""
        if self.is_gaussian:
            return 0.5 * np.log2(1.0 + snr)
        # d mi/d snr = mmse/(2 ln 2); beyond the stored tail the residual
        # integral is below the positivity floor, so clamping is exact
        # at double precision.
        dmi = self.mmse_values / (2.0 * _LN2)
        return _hermite_eval(np.minimum(snr, self.snr_top), self.snr_grid, self.mi_values, dmi)

    # -- inverse map ----------------------------------------------------

    @_query("psi", strict=True)
    def mmse_inverse(self, psi):
        """snr such that mmse(snr) = psi; exact inverse of :meth:`mmse_at`.

        psi >= 1 maps to 0 (mmse(0) = 1).  psi at or below the table floor
        raises :class:`TableRangeError`.
        """
        return _invert(_bank((self,)), 0, psi)[0]

    # -- mercury factor ---------------------------------------------------

    @_query("psi", strict=True)
    def mercury_factor(self, psi):
        """G(psi) = 1/psi - mmse_inverse(psi) on (0, 1); 1 for psi >= 1 or a Gaussian table."""
        out = np.ones_like(psi)
        active = (psi < 1.0) & (not self.is_gaussian)
        if np.any(active):
            out[active] = 1.0 / psi[active] - self.mmse_inverse(psi[active])
        return out

    # -- persistence ------------------------------------------------------

    def to_csv(self, path_or_buf) -> None:
        """Write the (snr, mmse, mi) grid as CSV for inspection."""
        emit(("snr", "mmse", "mi_bits"), (self.snr_grid, self.mmse_values, self.mi_values),
             path_or_buf)


@functools.lru_cache(maxsize=64)
def _bank(tables: tuple[MmseTable, ...]) -> tuple:
    """The bank of a tuple of tables: their grids concatenated for one pass.

    Cached per tuple of tables (by identity), so each epoch's bank is packed once.

    Returns ``(keys, cells, offset, floor, gaussian, tables)``.  Table k's
    search keys are ``offset[k] - log mmse`` at its nodes (its first key sits
    half a unit lower, so a log mmse(0) off zero by rounding still finds the
    first cell); they increase across the bank, so one ``searchsorted`` gives every
    query's cell as a column of ``cells``, whose first column repeats the first cell and last
    the last.  On a cell, with t = (snr - x0)/h and s = (log mmse - y0)/dy,
    ``log mmse = y0 + t*(b1 + t*(b2 + t*b3))`` is the forward interpolant and ``t = s*(m0 +
    s*(e2 + s*e3))`` its inverse cubic Hermite; a cell stores -dy and 2*b2 too (both exact).
    ``floor`` is the smallest normal double for Gaussian tables, so 1/psi stays finite.
    """
    sizes = np.array([t.snr_grid.size for t in tables])
    span = np.array([1.0 - t.log_mmse[-1] for t in tables])
    offset = np.cumsum(span) - span
    x, y, d = (np.concatenate([getattr(t, f) for t in tables])
               for f in ("snr_grid", "log_mmse", "dlog_mmse"))
    keys = np.repeat(offset, sizes) - y
    keys[np.cumsum(sizes) - sizes] = offset - 0.5
    h, dy = np.diff(x), np.diff(y)
    b1, d1 = d[:-1] * h, d[1:] * h
    m0, m1, b2 = dy / b1, dy / d1, 3.0 * dy - 2.0 * b1 - d1
    cells = np.stack([x[:-1], h, y[:-1], -dy, b1, b2, 2.0 * b2, b1 + d1 - 2.0 * dy,
                      m0, 3.0 - 2.0 * m0 - m1, m0 + m1 - 2.0])
    floor = np.array([np.finfo(float).tiny if t.is_gaussian else t.mmse_floor for t in tables])
    gaussian = np.array([t.is_gaussian for t in tables])
    return (keys, np.hstack([cells[:, :1], cells, cells[:, -1:]]), offset, floor,
            gaussian if gaussian.any() else None, tuple(tables))


def _invert(bank, rows, psi, at=None):
    """(snr, d log mmse/d snr there) with mmse(snr) = psi, for every query at once.

    ``rows`` gives each query's table in ``bank`` and broadcasts against ``psi``;
    ``at``, if given, is ``(offset[rows], floor[rows])``.  psi >= 1 maps to snr 0,
    and psi below a table's floor raises :class:`TableRangeError`.  The cell's
    inverse cubic Hermite seeds it and two Newton steps on the forward
    interpolant polish it.  Gaussian tables are closed form.
    """
    keys, cells, _, _, gaussian, tables = bank
    offset, floor = at or (bank[2][rows], bank[3][rows])
    p = np.minimum(psi, _ONE)
    low = p < floor
    if low.any():
        j = int(np.argmin(np.where(low, p, np.inf)))
        k = int(np.broadcast_to(rows, p.shape).flat[j])
        raise TableRangeError(
            f"mmse {float(p.flat[j])!r} below the {tables[k].label} table floor "
            f"{float(bank[3][k])!r}; the requested water level implies an snr beyond the "
            "modeled range, which the table's snr_max or double precision ends"
        )
    y = np.log(p)
    x0, h, y0, ndy, b1, b2, b2x2, b3, m0, e2, e3 = cells.take(keys.searchsorted(offset - y),
                                                             axis=1)
    r = y0 - y
    s = r / ndy
    t = np.minimum(np.maximum(s * (m0 + s * (e2 + s * e3)), _ZERO), _ONE)
    for _ in range(2):
        df = b1 + t * (b2x2 + _THREE * t * b3)
        t = t - (r + t * (b1 + t * (b2 + t * b3))) / df
    snr = np.where(p < _ONE, x0 + h * np.minimum(np.maximum(t, _ZERO), _ONE), _ZERO)
    if gaussian is None:
        return snr, df / h
    g = gaussian[rows]
    return np.where(g, 1.0 / p - 1.0, snr), np.where(g, -p, df / h)


def _refuse(label, what, bad):
    """Raise :class:`TableBuildError` naming the first eight indices where ``bad`` holds."""
    bad = np.nonzero(bad)[0]
    if bad.size:
        raise TableBuildError(f"{label}: {what} at indices {bad[:8].tolist()}",
                              indices=bad.tolist())


def _verify_grid(snr, mmse, label):
    """Enforce the mmse invariants, naming offenders on failure."""
    if abs(mmse[0] - 1.0) > 1e-9:
        raise TableBuildError(
            f"{label}: mmse at snr=0 is {float(mmse[0])!r}, expected 1", indices=[0]
        )
    _refuse(label, "mmse not strictly decreasing", mmse[1:] >= mmse[:-1])
    _refuse(label, "mmse values leave (0, 1]", ~((mmse > 0.0) & (mmse <= 1.0)))   # NaN too


def build_table(
    c: Constellation,
    snr_max: float = DEFAULT_SNR_MAX,
    n_points: int = DEFAULT_N_POINTS,
) -> MmseTable:
    """Build the mmse/mi table for a constellation.

    The grid is snr = 0 plus ``n_points - 1`` log-spaced values in
    [1e-3, snr_max].  For finite constellations the stored grid ends where
    mmse reaches the positivity floor (strict monotonicity in doubles is
    impossible past it); the requested ``snr_max`` is kept for reference,
    and must exceed the grid's first point.
    """
    snr_max = _real(snr_max, "snr_max", strict=True)
    if snr_max <= 1e-3:   # else the grid is flat or descends, and its tail cut leaves 2 points
        raise InvalidInputError(f"snr_max must exceed 1e-3, the grid's first point, "
                                f"got {snr_max!r}")
    n_points = _integer(n_points, "n_points", least=64)
    grid = np.concatenate([[0.0], np.geomspace(1e-3, snr_max, n_points - 1)])

    if c.is_gaussian:
        mmse = 1.0 / (1.0 + grid)
        dlog = -mmse
    else:
        mmse, dmmse = _sweep_mmse(c, grid)
        # truncate the numerically meaningless tail before the table checks the rest
        keep = mmse.size
        while keep > 2 and (
            mmse[keep - 1] < MMSE_FLOOR or mmse[keep - 1] >= mmse[keep - 2]
        ):
            keep -= 1
        grid, mmse = grid[:keep], mmse[:keep]
        dlog = dmmse[:keep] / mmse
    return MmseTable(c, grid, mmse, dlog, snr_max)


_SWEEP_ORDERS = (96, 192)


def _workers() -> int:
    """Threads of a table build: one per CPU this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _gh_points(c: Constellation, order: int, room: int) -> int:
    """Points per GH chunk: its (points, Q + 1, Q/2, order) elements fit ``room``.

    One point at the least: the kernel splits a point that does not fit along Q/2.
    """
    return max(1, room // ((c.cardinality + 1) * ((c.cardinality + 1) // 2) * order))


def _pairwise_run(c: Constellation, snr: np.ndarray, room: int, share: np.ndarray,
                  **rule) -> np.ndarray:
    """(mmse, dmmse) rows along ``snr``, 0 past the first mmse below the floor (dropped later)."""
    out = np.zeros((2, snr.size))
    for k, x in enumerate(snr):
        out[:, k] = _pairwise_mmse(c, float(x), workspace=room, out=share, **rule)
        if out[0, k] < MMSE_FLOOR:
            break
    return out


def _sweep_mmse(c: Constellation, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mmse, dmmse) over the grid: GH sweeps where probed-safe, pairwise above.

    The build computes in one anonymous mapping of ``2 * WORKSPACE`` elements,
    closed at its end, so its pages go back to the OS (a freed heap block
    would stay resident).
    """
    mapping = mmap.mmap(-1, 2 * WORKSPACE * 8)
    out = _sweep_in(c, grid, np.frombuffer(mapping))
    # raises BufferError if a view of it outlived the build; after an error the
    # traceback holds views, and the mapping goes with it
    mapping.close()
    return out


def _sweep_in(c: Constellation, grid: np.ndarray, space: np.ndarray):
    """:func:`_sweep_mmse` in ``space``: the points run as jobs on one thread
    pool, and each worker thread computes in its own share of ``space``."""
    workers = _workers()
    room = WORKSPACE // workers
    # a list iterator hands out each item once, whichever threads ask
    shares = iter([space[2 * room * k : 2 * room * (k + 1)] for k in range(workers)])
    mine = threading.local()

    def own():
        mine.share = next(shares)

    mmse, dmmse = np.empty_like(grid), np.empty_like(grid)
    mmse[0], dmmse[0] = _pairwise_mmse(c, 0.0)
    with ThreadPoolExecutor(workers, initializer=own) as pool:

        def spread(fn, x, idx, size, *args, **rule):
            """``fn(c, x[run], *args, room, share, **rule)`` in its worker's own share, on runs
            of ``size`` of ``idx``, all submitted now; the closure it returns gives their rows."""
            rows = pool.map(lambda run: fn(c, x[run], *args, room, mine.share, **rule),
                            [idx[k : k + size] for k in range(0, idx.size, size)])
            return lambda: np.concatenate([np.empty((2, 0)), *rows], axis=1)

        # probe each GH order against the exact pairwise rule on a log ladder;
        # trust is a prefix of the grid with a half-decade safety margin
        probes = grid[1:: max(grid.size // 32, 1)]
        every = np.arange(probes.size)
        exact = spread(_pairwise_run, probes, every, 1)
        sweeps = [spread(_gh_mmse_grid, probes, every, _gh_points(c, order, room), order)
                  for order in _SWEEP_ORDERS]
        em, ed = exact()
        done, sel = grid == 0.0, []
        for sweep in sweeps:
            gm, gd = sweep()
            ok = (abs(gm - em) <= 1e-9 * np.maximum(em, 1e-300)) & (
                abs(gd - ed) <= 1e-9 * np.maximum(abs(ed), 1e-300))
            bound = grid[-1] if ok.all() else float(probes[np.argmin(ok)]) * 0.5
            sel.append(np.nonzero(~done & (grid <= bound))[0])
            done[sel[-1]] = True

        tail = np.nonzero(~done)[0]   # one job: it runs while the GH grid sweeps share the rest
        jobs = [spread(_pairwise_run, grid, tail, max(1, tail.size), step=0.4, log_cut=40.0)]
        jobs += [spread(_gh_mmse_grid, grid, idx, _gh_points(c, order, room), order)
                 for order, idx in zip(_SWEEP_ORDERS, sel)]
        for idx, rows in zip([tail, *sel], jobs):
            mmse[idx], dmmse[idx] = rows()
    return mmse, dmmse


# the 8-point Gauss-Legendre rule on [-1, 1] as numpy's leggauss(8) gives it, mirrored
# exactly; as constants, so no build runs its eigensolver (which loads LAPACK)
_GL_NODES = (-0.9602898564975362, -0.7966664774136267, -0.525532409916329, -0.18343464249564978,
             0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362)
_GL_WEIGHTS = (0.10122853629037706, 0.22238103445337443, 0.3137066458778869, 0.36268378337836166,
               0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706)


def _integrate_mi(grid, logm, dlogm) -> np.ndarray:
    """Cumulative I(snr) in bits from dI/dsnr = mmse/2 (nats), given log mmse and its slope.

    Integrates the same log-space Hermite interpolant later used for
    evaluation, with an 8-point Gauss-Legendre rule per cell.
    """
    gl_x, gl_w = np.array(_GL_NODES), np.array(_GL_WEIGHTS)
    h = np.diff(grid)
    mid = grid[:-1, None] + (gl_x[None, :] + 1.0) * 0.5 * h[:, None]
    vals = np.exp(_hermite_eval(mid.ravel(), grid, logm, dlogm)).reshape(mid.shape)
    cell = (vals * gl_w[None, :]).sum(axis=1) * 0.5 * h
    nats = np.concatenate([[0.0], np.cumsum(0.5 * cell)])
    return nats / _LN2


# ---------------------------------------------------------------------------
# caching: per-process dict, plus an optional on-disk cache directory
# (MERCURYFLOW_TABLE_CACHE) holding .npz snapshots of built tables
# ---------------------------------------------------------------------------

CACHE_ENV_VAR = "MERCURYFLOW_TABLE_CACHE"

_TABLE_CACHE: dict[tuple, MmseTable] = {}


def _disk_path(c: Constellation, key: tuple):
    root = os.environ.get(CACHE_ENV_VAR)
    if not root or c.is_gaussian:
        return None
    import hashlib   # 3.6 MB of OpenSSL, loaded only when there is a cache to name
    from pathlib import Path

    digest = hashlib.sha256(repr(key).encode()).hexdigest()[:16]
    return Path(root) / f"{c.label}-{digest}.npz"


def _from_disk(c: Constellation, path, snr_max: float) -> MmseTable | None:
    """The table of the snapshot at ``path``, or None if there is none, it cannot be
    read, an array is missing or :class:`MmseTable` refuses its arrays."""
    if path is None or not path.exists():
        return None
    import zipfile

    try:
        with np.load(path) as z:
            arrays = {f: z[f] for f in _STORED}
        return MmseTable(constellation=c, snr_max_requested=snr_max, **arrays)
    except (OSError, ValueError, TypeError, EOFError, KeyError, zipfile.BadZipFile,
            TableBuildError):
        return None


def table_for(
    c: Constellation,
    snr_max: float = DEFAULT_SNR_MAX,
    n_points: int = DEFAULT_N_POINTS,
) -> MmseTable:
    """Build-or-fetch the table for a constellation.

    Hits the per-process cache first, then the optional on-disk cache named
    by the MERCURYFLOW_TABLE_CACHE environment variable, then builds; a
    snapshot that cannot be read or is not a table is a miss, and the build
    replaces it.
    """
    snr_max = _real(snr_max, "snr_max", strict=True)
    key = c.cache_key() + (snr_max, _integer(n_points, "n_points", least=64))
    tab = _TABLE_CACHE.get(key)
    if tab is None:
        path = _disk_path(c, key)
        tab = _from_disk(c, path, snr_max)
        if tab is None:
            tab = build_table(c, snr_max=snr_max, n_points=n_points)
            if path is not None:   # whole or not at all: a killed writer leaves only its .part
                path.parent.mkdir(parents=True, exist_ok=True)
                part = path.with_name(f"{path.name}.{os.getpid()}.part")
                with open(part, "wb") as fh:
                    np.savez(fh, **{f: getattr(tab, f) for f in _STORED})
                os.replace(part, path)
        _TABLE_CACHE[key] = tab
    return tab


def clear_cache() -> None:
    """Forget every table and bank this process holds (the disk cache stays)."""
    _TABLE_CACHE.clear()
    _bank.cache_clear()
