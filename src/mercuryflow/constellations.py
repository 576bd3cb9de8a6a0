"""Input constellations and the mmse kernels that build their tables.

A :class:`Constellation` is a real, unit-power input distribution: either a
discrete set of amplitudes with probabilities or the ideal Gaussian input.
For a discrete input on the scalar Gaussian channel ``y = sqrt(snr) x + n``
with ``n ~ N(0, 1)``, two kernels give ``mmse = E{(x - E{x|y})^2}`` and
``d mmse / d snr``; :mod:`mercuryflow.tables` builds every table from them,
and integrates mutual information from the mmse by I-MMSE.

Discrete-input mmse values decay like ``exp(-snr * d^2 / 8)`` (``d`` the
minimum point spacing), so the vectorized Gauss-Hermite sweep over the noise
(``_gh_mmse_grid``) loses all relative accuracy once the error mass migrates
past the node span.  ``_pairwise_mmse`` evaluates one snr through an exact
pairwise identity,

    mmse(snr) = sum_{i<j} p_i p_j (s_i - s_j)^2
                * Int phi(y - a s_i) phi(y - a s_j) / p(y) dy,   a = sqrt(snr)

whose terms are positive, localized at the pair midpoints, and integrable to
near machine precision at every snr with a width-adapted trapezoid rule.  A
table takes the sweep only on the snr prefix where the two agree.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.typing import NDArray

from .errors import InvalidInputError, _integer, _reals

__all__ = [
    "Constellation",
    "bpsk",
    "pam",
    "gaussian",
    "by_name",
    "BUILTIN_NAMES",
]

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# Defaults for the pairwise trapezoid rule: step 0.35 keeps the analyticity
# strip error near 1e-12, log_cut 46 truncates tails and prunes pairs at
# relative weight exp(-46) ~ 1e-20.
_PAIR_STEP = 0.35
_PAIR_LOG_CUT = 46.0

# Elements of one temporary array of an mmse evaluation, two live at once: a
# pairwise block of (width, pairs, nodes) window values and three (pairs, nodes)
# arrays, or a Gauss-Hermite chunk of (points, Q, at most Q/2, order) terms and
# one (points, Q/2, order) sum.  A table build maps twice this many elements
# once, gives each worker a share and unmaps it at its end.
WORKSPACE = 250_000
# The window search runs in blocks of pairs whose (pairs, nodes) arrays, three
# in the workspace and the searchsorted indices outside it, hold at most
# 1/_ROW_PART of its elements each.
_ROW_PART = 8


@dataclass(frozen=True)
class Constellation:
    """A real unit-power channel input distribution.

    ``kind`` is ``"discrete"`` (amplitudes + probabilities) or ``"gaussian"``
    (ideal unit-variance input, handled in closed form everywhere).

    Invariants enforced at construction for discrete inputs: probabilities
    positive and summing to 1 (1e-12), pairwise-distinct points, zero mean
    (the water-level calculus assumes mmse(0) = 1, i.e. no DC component),
    unit average power (1e-10), and at least two points.
    """

    kind: str
    points: NDArray[np.float64] | None = None
    probs: NDArray[np.float64] | None = None
    label: str = ""

    def __post_init__(self):
        if self.kind == "gaussian":
            if self.points is not None or self.probs is not None:
                raise InvalidInputError("gaussian constellation takes no points")
            if not self.label:
                object.__setattr__(self, "label", "gaussian")
            return
        if self.kind != "discrete":
            raise InvalidInputError(f"unknown constellation kind {self.kind!r}")
        pts = _reals(self.points, "points", least=-math.inf)
        pr = _reals(self.probs, "probs", strict=True)
        if pts.ndim != 1 or pr.shape != pts.shape:
            raise InvalidInputError("points and probs must be 1-D and equal length")
        if pts.size < 2:
            raise InvalidInputError("a discrete constellation needs >= 2 points")
        if abs(pr.sum() - 1.0) > 1e-12:
            raise InvalidInputError(f"probabilities sum to {float(pr.sum())!r}, not 1")
        order = np.argsort(pts)
        pts, pr = pts[order], pr[order]
        if np.any(np.diff(pts) == 0.0):
            raise InvalidInputError("points must be pairwise distinct")
        power = float(np.sum(pr * pts * pts))
        if abs(power - 1.0) > 1e-10:
            raise InvalidInputError(f"unit average power violated: E[s^2] = {power!r}")
        mean = float(np.sum(pr * pts))
        if abs(mean) > 1e-9:
            raise InvalidInputError(f"constellation mean {mean!r} is not 0")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "probs", pr)
        if not self.label:
            object.__setattr__(self, "label", f"discrete{pts.size}")

    @property
    def is_gaussian(self) -> bool:
        return self.kind == "gaussian"

    @property
    def cardinality(self) -> int:
        return 0 if self.is_gaussian else int(self.points.size)

    def max_information_bits(self) -> float:
        """Saturation level of the mutual information: log2(Q), inf for Gaussian."""
        if self.is_gaussian:
            return math.inf
        return math.log2(self.cardinality)

    def cache_key(self) -> tuple:
        if self.is_gaussian:
            return ("gaussian",)
        return (self.label, self.points.tobytes(), self.probs.tobytes())


def pam(q: int) -> Constellation:
    """Uniform Q-PAM with standard unit-power spacing."""
    q = _integer(q, "PAM order", least=2)
    levels = np.arange(-(q - 1), q, 2, dtype=float)
    levels *= math.sqrt(3.0 / (q * q - 1.0))
    return Constellation("discrete", levels, np.full(q, 1.0 / q), label=f"{q}pam" if q != 2 else "bpsk")


def bpsk() -> Constellation:
    return pam(2)


def gaussian() -> Constellation:
    return Constellation("gaussian", label="gaussian")


BUILTIN_NAMES = ("bpsk", "4pam", "16pam", "32pam", "gaussian")


def by_name(name: str) -> Constellation:
    """Resolve a built-in constellation name ('bpsk', '4pam', ..., 'gaussian')."""
    key = name.strip().lower() if isinstance(name, str) else ""   # no name matches ""
    if key == "gaussian":
        return gaussian()
    if key == "bpsk":
        return bpsk()
    if key.endswith("pam"):
        try:
            q = int(key[:-3].rstrip("-_"))
        except ValueError:
            raise InvalidInputError(f"unknown constellation name {name!r}") from None
        return pam(q)
    raise InvalidInputError(f"unknown constellation name {name!r}")


# ---------------------------------------------------------------------------
# quadrature machinery
# ---------------------------------------------------------------------------

# The Gauss-Hermite rules of the table sweep (orders 96 and 192), scaled for
# N(0, 1): nodes sqrt(2) t and weights w / sqrt(pi) of scipy 1.17.1's
# roots_hermite(order), stored as "nodes<order>" and "weights<order>".  The
# table bytes rest on these bits, so the rules ship with the package.
_GH_RULES = Path(__file__).with_name("gauss_hermite.npz")


@functools.lru_cache(maxsize=None)
def _gh_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights for E{f(n)}, n ~ N(0,1): sum w_r f(n_r)."""
    with np.load(_GH_RULES) as rules:
        return rules[f"nodes{order}"], rules[f"weights{order}"]


@functools.lru_cache(maxsize=16)
def _pairs(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs i < j of Q symbols, built once per Q for every pairwise evaluation."""
    return np.triu_indices(q, k=1)


def _halved(c: Constellation, i: np.ndarray, j: np.ndarray):
    """(i, j, weight) of the index pairs a sum over (i, j) needs.

    On a mirror-symmetric constellation term (i, j) equals term (Q-1-j, Q-1-i),
    so only i + j <= Q-1 is kept, the terms below with weight 2.
    """
    sym = np.array_equal(c.points, -c.points[::-1]) and np.array_equal(c.probs, c.probs[::-1])
    keep = (i + j <= c.cardinality - 1) | (not sym)
    return i[keep], j[keep], np.where(sym & (i + j < c.cardinality - 1), 2.0, 1.0)[keep]


def _scratch(out: np.ndarray | None, n: int) -> np.ndarray:
    """``n`` elements of ``out`` to compute in, or fresh ones if ``out`` is None or too short."""
    return out[:n] if out is not None and out.size >= n else np.empty(n)


def _sum_outer(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``x.sum(axis=0)`` into ``out[0]``, in the order numpy sums a contiguous last axis.

    ``out`` has ``x``'s shape and may be ``x``.  numpy starts each sum at 0.0 and
    adds the terms pairwise: under 8 in order; up to 128 in eight strided partial
    sums, combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the rest in order;
    more in two halves, the first a multiple of 8 long.  Here each step is one
    elementwise pass over the outer axis, which numpy runs far faster than a
    reduction along a short last axis.
    """
    return np.add(_pairwise_outer(x, out), 0.0, out=out[0])


def _pairwise_outer(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """numpy's pairwise sum of ``x`` over its outer axis, without the starting 0.0."""
    n = x.shape[0]
    if n > 128:
        half = n // 2 - n // 2 % 8
        return np.add(_pairwise_outer(x[:half], out[:half]),
                      _pairwise_outer(x[half:], out[half:]), out=out[0])
    acc, rest = x[0], 1
    if n >= 8:
        acc = x[:8]
        for i in range(8, n - n % 8, 8):
            acc = np.add(acc, x[i : i + 8], out=out[:8])
        np.add(acc[0::2], acc[1::2], out=out[0:8:2])
        np.add(out[0:8:4], out[2:8:4], out=out[0:8:4])
        acc, rest = np.add(out[0], out[4], out=out[0]), n - n % 8
    for i in range(rest, n):
        acc = np.add(acc, x[i], out=out[0])
    return acc


def _pairwise_mmse(
    c: Constellation,
    snr: float,
    step: float = _PAIR_STEP,
    log_cut: float = _PAIR_LOG_CUT,
    workspace: int = WORKSPACE,
    out: np.ndarray | None = None,
) -> tuple[float, float]:
    """Return (mmse, d mmse / d snr) by the pairwise-boundary quadrature.

    ``workspace`` bounds the elements of each (width, pairs, nodes) array;
    the two such arrays are views of ``out`` when it holds them, and so are
    the window search's (pairs, nodes) arrays before them.  The window
    position is the outer axis: a block's symbol values are taken from the
    (width, windows) table by each pair's window start at each node, and
    every max or sum over the window is a run of elementwise passes over its
    slabs (:func:`_sum_outer` keeps the order of a last-axis sum).  The symbol
    array is taken again for each use, so two arrays hold a block.
    """
    s = c.points
    p = c.probs
    if snr == 0.0:
        # var(x|y) = var(x) almost surely when y carries no information
        var = min(max(float(np.sum(p * s * s) - np.sum(p * s) ** 2), 0.0), 1.0)
        return var, -var * var
    a = math.sqrt(snr)
    logp = np.log(p)
    q = s.size
    iu, ju, wt = _halved(c, *_pairs(q))
    dsign = s[iu] - s[ju]
    delta = np.abs(dsign)
    ad = a * delta
    pref = logp[iu] + logp[ju] + 2.0 * np.log(delta) - ad * ad / 4.0
    # peak height of each pair term, including the 1/p(y) boost at the midpoint
    peak = pref + ad * ad / 8.0
    keep = peak > (peak.max() - log_cut)
    iu, ju, wt = iu[keep], ju[keep], wt[keep]
    dsign, delta, ad, pref = dsign[keep], delta[keep], ad[keep], pref[keep]
    mid = a * (s[iu] + s[ju]) / 2.0
    # scale so the sech-like kernel has unit width and a pi/2 analyticity strip
    cs = np.minimum(1.0, 2.0 / np.maximum(ad, 1e-300))
    decay = np.minimum(ad / 2.0, 1.0)
    t_half = (-decay + np.sqrt(decay * decay + 2.0 * log_cut * cs * cs)) / (cs * cs)
    t_max = float(t_half.max())
    n_nodes = max(int(math.ceil(2.0 * t_max / step)) + 1, 9)
    tau = np.linspace(-t_max, t_max, n_nodes)
    h = tau[1] - tau[0]
    # posterior sums over the symbols that can lie within log_cut of the node's
    # top exponent: each pair's first such symbol at each node, one block of
    # pairs at a time into one compact array, and the window width, their
    # maximum over every pair and node
    sa = a * s
    sides = np.stack([sa[:-1], sa[1:]])  # the symbols either side of each gap
    reach = 2.0 * (log_cut + logp.max() - logp.min())
    lo = np.empty((iu.size, n_nodes), dtype=np.min_scalar_type(q))
    width, rows = 0, max(1, workspace // (_ROW_PART * n_nodes))
    search = _scratch(out, 3 * min(rows, iu.size) * n_nodes)
    for b in range(0, iu.size, rows):
        blk = slice(b, b + rows)
        space = search[: 3 * lo[blk].size].reshape(3, -1, n_nodes)
        (y, near, r), gap = space, space[1:]
        np.add(mid[blk, None], np.multiply(cs[blk, None], tau, out=y), out=y)
        # the distances to the symbols either side of y; the closer one is near
        np.take(sides, sa[1:-1].searchsorted(y), axis=1, out=gap, mode="clip")
        np.abs(np.subtract(y, gap, out=gap), out=gap)
        np.minimum(near, r, out=near)
        np.sqrt(np.add(np.square(near, out=r), reach, out=r), out=r)
        lo[blk] = sa.searchsorted(np.subtract(y, r, out=near))
        last = sa.searchsorted(np.add(y, r, out=near), side="right")
        width = max(width, int(np.subtract(last, lo[blk], out=last).max()))
    np.minimum(lo, q - width, out=lo)
    # each pair's node sums, in blocks of pairs whose two (width + 3, pairs,
    # nodes) arrays fit twice the workspace: the first width slabs of each
    # hold the block's window values, the other three its (pairs, nodes)
    # arrays; every block reuses the same two, and every sum keeps the order
    # of one along a row, so the bytes do not depend on the block
    core_sums, slope_sums = np.empty(iu.size), np.empty(iu.size)
    rows = max(1, workspace // (n_nodes * (width + 3)))
    buf = _scratch(out, 2 * min(rows, iu.size) * n_nodes * (width + 3))
    # the symbol windows, one per column: column j holds symbols j to j + width - 1
    win = np.arange(width)[:, None] + np.arange(q - width + 1)
    s_win, logp_win = s[win], logp[win]
    for b in range(0, iu.size, rows):
        blk = slice(b, b + rows)
        one, two = buf[: 2 * (width + 3) * lo[blk].size].reshape(2, width + 3, -1, n_nodes)
        sw, w = one[:width], two[:width]   # a window's values, and its posterior weights
        (at, tb, y), (em, core, bracket) = one[width:], two[width:]
        at = at.view(np.intp)   # the window starts as indices, so no take converts lo
        np.copyto(at, lo[blk])

        def window(values):
            """Each pair's window of ``values`` (symbols or log priors) at each node, in sw."""
            return np.take(values, at, axis=1, out=sw, mode="clip")

        np.add(mid[blk, None], np.multiply(cs[blk, None], tau, out=tb), out=y)
        # w = exp(logp - (y - a s)^2 / 2 - em), the symbols' posterior weights
        np.multiply(window(s_win), a, out=w)
        np.subtract(y, w, out=w)
        np.square(w, out=w)
        w *= 0.5
        np.subtract(window(logp_win), w, out=w)
        np.max(w, axis=0, out=em)
        w -= em
        np.exp(w, out=w)
        z = _sum_outer(w, sw)
        # em becomes log p(y) = em + log z - log sqrt(2 pi), and the core terms
        # exp(pref - tb^2 - log 2 pi - log p(y))
        em += np.log(z, out=core)
        em -= _LOG_SQRT_2PI
        np.subtract(pref[blk, None], np.square(tb, out=core), out=core)
        core -= math.log(2.0 * math.pi)
        core -= em
        np.exp(core, out=core)
        core_sums[blk] = core.sum(axis=1)
        # derivative of each pair integral w.r.t. a, then d/dsnr = d/da / (2a):
        # the bracket yi s_i + yj s_j - (y xhat - a x2), yi = tb - a dsign / 2 and
        # yj = tb + a dsign / 2
        w /= z
        y *= _sum_outer(np.multiply(w, window(s_win), out=sw), sw)
        x2 = _sum_outer(np.multiply(w, np.square(window(s_win), out=sw), out=sw), sw)
        x2 *= a
        y -= x2
        half = (a * dsign[blk] / 2.0)[:, None]
        np.multiply(np.subtract(tb, half, out=bracket), s[iu[blk]][:, None], out=bracket)
        tb += half
        tb *= s[ju[blk]][:, None]
        bracket += tb
        bracket -= y
        bracket *= core
        slope_sums[blk] = bracket.sum(axis=1)
    mmse = float((core_sums * cs * wt).sum() * h)
    dmmse = float((slope_sums * cs * wt).sum() * h) / (2.0 * a)
    return min(mmse, 1.0), min(dmmse, 0.0)


def _gh_mmse_grid(
    c: Constellation,
    snr: np.ndarray,
    order: int,
    workspace: int = WORKSPACE,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized mixture Gauss-Hermite sweep: (mmse, d mmse/d snr) per snr.

    Only trustworthy while the error mass sits inside the node span; the
    table builder cross-checks it against the pairwise rule before use.
    The (G, Q, Q/2, order) arrays run in blocks of the transmitted symbols
    whose two such arrays and two (G, Q/2, order) ones fit twice ``workspace``
    elements (one symbol at the least), in ``out`` when it holds them.
    """
    s = c.points
    logp = np.log(c.probs)
    nodes, wq = _gh_nodes(order)
    # symbol j at node n mirrors symbol Q-1-j at node -n
    j, _, wt = _halved(c, np.arange(s.size), np.arange(s.size))
    a = np.sqrt(snr)[:, None, None, None]                     # (G,1,1,1)
    cols = min(j.size, max(1, workspace // (snr.size * (s.size + 1) * order)))
    sums = np.empty((2, snr.size, j.size))  # each (G, j)'s node sums of m2 and m2^2
    for b in range(0, j.size, cols):
        jb = j[b : b + cols]
        # y = a s_j + n given transmitted s_j; posterior over s_i
        diff = (s[:, None] - s[None, jb])[None, :, :, None]   # (1,Q_i,Q_j,1)
        # w = exp(logp - (n + a diff)^2 / 2 - em), each step in place in one
        # (G,Q_i,Q_j,R) buffer; a second one holds the posterior moments' terms,
        # a (G,Q_j,R) one their sums over Q_i and another the node sums' terms
        n = snr.size * jb.size * order
        space = _scratch(out, 2 * (s.size + 1) * n)
        w, scratch = space[: 2 * s.size * n].reshape(2, snr.size, s.size, jb.size, order)
        moment, term = space[2 * s.size * n :].reshape(2, snr.size, jb.size, order)
        np.add(nodes[None, None, None, :], a * diff, out=w)
        np.square(w, out=w)
        w *= 0.5
        np.subtract(logp[None, :, None, None], w, out=w)
        em = np.max(w, axis=1, out=moment)
        w -= em[:, None]
        np.exp(w, out=w)
        z = np.sum(w, axis=1, out=moment)
        w /= z[:, None]
        xhat = np.sum(np.multiply(w, s[None, :, None, None], out=scratch), axis=1, out=moment)
        np.square(np.subtract(s[None, :, None, None], xhat[:, None], out=scratch), out=scratch)
        m2 = np.sum(np.multiply(w, scratch, out=scratch), axis=1, out=moment)   # (G,Q_j,R)
        sums[0, :, b : b + cols] = np.multiply(m2, wq[None, None, :], out=term).sum(axis=2)
        sums[1, :, b : b + cols] = np.multiply(np.square(m2, out=term), wq[None, None, :],
                                               out=term).sum(axis=2)
    # one sum over the whole (G, Q/2) array, so the bytes do not depend on the blocks
    mmse = (sums[0] * (c.probs[j] * wt)[None, :]).sum(axis=1)
    d = -(sums[1] * (c.probs[j] * wt)[None, :]).sum(axis=1)
    return np.minimum(mmse, 1.0), np.minimum(d, 0.0)
