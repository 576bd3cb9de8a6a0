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

# Elements of one temporary array of an mmse evaluation: a pairwise block of
# (pairs, nodes, width), three live at once, or a Gauss-Hermite chunk of
# (points, Q, at most Q/2, order), two at once.  A table build maps three times
# this many elements once, gives each worker a share and unmaps it at its end.
WORKSPACE = 250_000
# A pairwise block's (pairs, nodes) arrays, about eight live at once outside
# the workspace, hold at most 1/_ROW_PART of its elements each.
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
    key = name.strip().lower()
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


def _pairwise_mmse(
    c: Constellation,
    snr: float,
    step: float = _PAIR_STEP,
    log_cut: float = _PAIR_LOG_CUT,
    workspace: int = WORKSPACE,
    out: np.ndarray | None = None,
) -> tuple[float, float]:
    """Return (mmse, d mmse / d snr) by the pairwise-boundary quadrature.

    ``workspace`` bounds the elements of each (pairs, nodes, width) array;
    the three such arrays are views of ``out`` when it holds them.
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
    reach = 2.0 * (log_cut + logp.max() - logp.min())
    lo = np.empty((iu.size, n_nodes), dtype=np.min_scalar_type(q))
    width, rows = 0, max(1, workspace // (_ROW_PART * n_nodes))
    for b in range(0, iu.size, rows):
        y = mid[b : b + rows, None] + cs[b : b + rows, None] * tau
        k = sa[1:-1].searchsorted(y) + 1  # the closest symbol is k - 1 or k
        near = np.minimum(np.abs(y - sa[k - 1]), np.abs(y - sa[k]))
        r = np.sqrt(near * near + reach)
        lo[b : b + rows] = first = sa.searchsorted(y - r)
        width = max(width, int((sa.searchsorted(y + r, side="right") - first).max()))
    np.minimum(lo, q - width, out=lo)
    # each pair's node sums, in blocks of pairs whose (pairs, nodes, width)
    # arrays fit the workspace; every block reuses the same three such arrays
    # and every sum runs along one row, so the bytes do not depend on the block
    core_sums, slope_sums = np.empty(iu.size), np.empty(iu.size)
    rows = max(1, workspace // (n_nodes * max(width, _ROW_PART)))
    buf = _scratch(out, 3 * min(rows, iu.size) * n_nodes * width).reshape(3, -1, n_nodes, width)
    win = np.arange(q - width + 1)[:, None] + np.arange(width)  # the symbol windows
    s_win, logp_win = s[win], logp[win]
    for b in range(0, iu.size, rows):
        blk = slice(b, b + rows)
        tb = cs[blk, None] * tau
        y = mid[blk, None] + tb
        sw, scratch, w = buf[:, : tb.shape[0]]
        np.take(s_win, lo[blk], axis=0, out=sw, mode="clip")
        np.take(logp_win, lo[blk], axis=0, out=scratch, mode="clip")
        # w = exp(logp - (y - a s)^2 / 2 - em), the symbols' posterior weights
        np.multiply(sw, a, out=w)
        np.subtract(y[:, :, None], w, out=w)
        np.square(w, out=w)
        w *= 0.5
        np.subtract(scratch, w, out=w)
        em = w.max(axis=2)
        w -= em[:, :, None]
        np.exp(w, out=w)
        z = w.sum(axis=2)
        log_density = em + np.log(z) - _LOG_SQRT_2PI
        core = np.exp(pref[blk, None] - tb * tb - math.log(2.0 * math.pi) - log_density)
        core_sums[blk] = core.sum(axis=1)
        # derivative of each pair integral w.r.t. a, then d/dsnr = d/da / (2a)
        w /= z[:, :, None]
        xhat = np.multiply(w, sw, out=scratch).sum(axis=2)
        x2 = np.multiply(w, np.square(sw, out=sw), out=scratch).sum(axis=2)
        yi = tb - (a * dsign[blk] / 2.0)[:, None]
        yj = tb + (a * dsign[blk] / 2.0)[:, None]
        bracket = yi * s[iu[blk]][:, None] + yj * s[ju[blk]][:, None] - (y * xhat - a * x2)
        slope_sums[blk] = (core * bracket).sum(axis=1)
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
    that fit ``workspace`` elements (one symbol at the least), two at a time
    in ``out`` when it holds them.
    """
    s = c.points
    logp = np.log(c.probs)
    nodes, wq = _gh_nodes(order)
    # symbol j at node n mirrors symbol Q-1-j at node -n
    j, _, wt = _halved(c, np.arange(s.size), np.arange(s.size))
    a = np.sqrt(snr)[:, None, None, None]                     # (G,1,1,1)
    cols = min(j.size, max(1, workspace // (snr.size * s.size * order)))
    sums = np.empty((2, snr.size, j.size))  # each (G, j)'s node sums of m2 and m2^2
    for b in range(0, j.size, cols):
        jb = j[b : b + cols]
        # y = a s_j + n given transmitted s_j; posterior over s_i
        diff = (s[:, None] - s[None, jb])[None, :, :, None]   # (1,Q_i,Q_j,1)
        # w = exp(logp - (n + a diff)^2 / 2 - em), each step in place in one
        # (G,Q_i,Q_j,R) buffer; a second one holds the posterior moments' terms
        w, scratch = _scratch(out, 2 * snr.size * s.size * jb.size * order).reshape(
            2, snr.size, s.size, jb.size, order)
        np.add(nodes[None, None, None, :], a * diff, out=w)
        np.square(w, out=w)
        w *= 0.5
        np.subtract(logp[None, :, None, None], w, out=w)
        em = w.max(axis=1)
        w -= em[:, None]
        np.exp(w, out=w)
        z = w.sum(axis=1)
        w /= z[:, None]
        xhat = np.multiply(w, s[None, :, None, None], out=scratch).sum(axis=1)   # (G,Q_j,R)
        np.square(np.subtract(s[None, :, None, None], xhat[:, None], out=scratch), out=scratch)
        m2 = np.multiply(w, scratch, out=scratch).sum(axis=1)
        sums[0, :, b : b + cols] = (m2 * wq[None, None, :]).sum(axis=2)
        sums[1, :, b : b + cols] = (m2 * m2 * wq[None, None, :]).sum(axis=2)
    # one sum over the whole (G, Q/2) array, so the bytes do not depend on the blocks
    mmse = (sums[0] * (c.probs[j] * wt)[None, :]).sum(axis=1)
    d = -(sums[1] * (c.probs[j] * wt)[None, :]).sum(axis=1)
    return np.minimum(mmse, 1.0), np.minimum(d, 0.0)
