"""Reference quadratures: slow, self-checking oracles for the mmse tables.

The package reads a constellation's mmse and mutual information only
through its interpolated tables, which are built from the pairwise and
Gauss-Hermite kernels of :mod:`mercuryflow.constellations`.  These
functions evaluate the same quantities one snr at a time, each with its own
convergence check, so tests can hold the tables and the kernels to them.
They reach the kernels through the module (``cons._pairwise_mmse``), so a
test that monkeypatches a kernel reaches them too.

For a scalar Gaussian channel ``y = sqrt(snr) x + n`` with ``n ~ N(0, 1)``:

* ``conditional_mean`` -- the posterior mean estimate ``E{x | y}``,
* ``mmse_exact``       -- ``E{(x - E{x|y})^2}``,
* ``mmse_derivative``  -- ``d mmse / d snr = -E{var(x|y)^2}``,
* ``mutual_information`` -- ``I(x; y)`` in bits.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.special import roots_hermite

from mercuryflow import constellations as cons
from mercuryflow.errors import InvalidInputError


class QuadratureAccuracyError(Exception):
    """Numerical integration failed its self-consistency check.

    Carries both estimates so the caller can judge the disagreement.
    """

    def __init__(self, message: str, coarse: float, fine: float):
        super().__init__(message)
        self.coarse = coarse
        self.fine = fine


def _check_args(snr: float) -> float:
    snr = float(snr)
    if not math.isfinite(snr) or snr < 0.0:
        raise InvalidInputError(f"snr must be finite and >= 0, got {snr!r}")
    return snr


@functools.lru_cache(maxsize=None)
def gh_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """scipy's Gauss-Hermite rule of ``order``, scaled for E{f(n)}, n ~ N(0, 1).

    The scaling is the one the package's shipped rules (``cons._gh_nodes``) carry.
    """
    t, w = roots_hermite(order)
    return np.sqrt(2.0) * t, w / math.sqrt(math.pi)


def _gh_mi_single(c: cons.Constellation, snr: float, order: int) -> float:
    """Mutual information in bits at one snr via mixture Gauss-Hermite."""
    if snr == 0.0:
        return 0.0
    s = c.points
    p = c.probs
    logp = np.log(p)
    nodes, wq = gh_rule(order)
    a = math.sqrt(snr)
    diff = s[None, :] - s[:, None]                            # (Q_j, Q_i): s_j - s_i
    # log p_i - ((n + a(s_j - s_i))^2 - n^2)/2, expanded so n^2 cancels exactly
    expo = (
        logp[None, :, None]
        - nodes[None, None, :] * (a * diff)[:, :, None]
        - 0.5 * ((a * diff) ** 2)[:, :, None]
    )
    em = expo.max(axis=1)
    lse = em + np.log(np.exp(expo - em[:, None, :]).sum(axis=1))
    nats = -((lse * wq[None, :]).sum(axis=1) * p).sum()
    return max(float(nats) / math.log(2.0), 0.0)


def conditional_mean(c: cons.Constellation, y: float, snr: float) -> float:
    """Posterior mean E{x | sqrt(snr) x + n = y}.

    Gaussian inputs use the linear estimator sqrt(snr)/(1+snr) * y; discrete
    inputs use the exact Bayes weighting of the points.
    """
    snr = _check_args(snr)
    y = float(y)
    if not math.isfinite(y):
        raise InvalidInputError(f"y must be finite, got {y!r}")
    if c.is_gaussian:
        return math.sqrt(snr) / (1.0 + snr) * y
    a = math.sqrt(snr)
    expo = np.log(c.probs) - 0.5 * (y - a * c.points) ** 2
    expo -= expo.max()
    w = np.exp(expo)
    return float(np.sum(w * c.points) / np.sum(w))


def _checked_pairwise(c: cons.Constellation, snr: float, which: int, what: str, check: bool) -> float:
    """Entry ``which`` of the pairwise rule; with ``check``, re-run at half step.

    The two estimates must agree to 1e-8 relative (QuadratureAccuracyError
    naming ``what`` otherwise), and the finer one is returned.
    """
    coarse = cons._pairwise_mmse(c, snr)[which]
    if not check:
        return coarse
    fine = cons._pairwise_mmse(c, snr, step=cons._PAIR_STEP / 2.0)[which]
    if abs(fine - coarse) > 1e-8 * max(abs(fine), 1e-300):
        raise QuadratureAccuracyError(
            f"{what} quadrature for {c.label} did not converge at snr={snr}",
            coarse=coarse,
            fine=fine,
        )
    return fine


def mmse_exact(c: cons.Constellation, snr: float, check: bool = True) -> float:
    """mmse(snr) = E{(x - E{x|y})^2}, clamped to [0, 1].

    Discrete inputs are integrated with the pairwise-boundary rule; when
    ``check`` is set the rule is re-run at half step and the two estimates
    must agree to 1e-8 relative (QuadratureAccuracyError otherwise).
    """
    snr = _check_args(snr)
    if c.is_gaussian:
        return 1.0 / (1.0 + snr)
    return _checked_pairwise(c, snr, 0, "mmse", check)


def mmse_derivative(c: cons.Constellation, snr: float, check: bool = True) -> float:
    """d mmse / d snr = -E{var(x|y)^2}; always <= 0."""
    snr = _check_args(snr)
    if c.is_gaussian:
        return -1.0 / (1.0 + snr) ** 2
    return _checked_pairwise(c, snr, 1, "mmse-derivative", check)


_MI_ORDERS = (96, 192, 384, 768)


def mutual_information(c: cons.Constellation, snr: float) -> float:
    """I(x; sqrt(snr) x + n) in bits.

    Gaussian inputs: 0.5*log2(1+snr).  Discrete inputs: Gauss-Hermite mixture
    quadrature per transmitted symbol, with order doubling until consecutive
    estimates agree to 1e-8 relative; unlike the mmse, the MI integrand
    saturates rather than migrating past the nodes, so the rule holds at
    every snr.
    """
    snr = _check_args(snr)
    if c.is_gaussian:
        return 0.5 * math.log2(1.0 + snr)
    prev = _gh_mi_single(c, snr, _MI_ORDERS[0])
    for o in _MI_ORDERS[1:]:
        cur = _gh_mi_single(c, snr, o)
        if abs(cur - prev) <= 1e-8 * max(abs(cur), 1e-12):
            return cur
        prev = cur
    raise QuadratureAccuracyError(
        f"mutual-information quadrature for {c.label} did not converge at snr={snr}",
        coarse=prev,
        fine=cur,
    )
