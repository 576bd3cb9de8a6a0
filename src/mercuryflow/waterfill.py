"""Per-epoch water-level solving.

Given channel gains over a contiguous run of accesses, one constellation
table per stream, and an energy budget that must be fully spent by the end
of the run, find the common water level W and the per-stream powers

    power = (1/lam) * mmse_inverse(min(1, 1/(W*lam))),

which is the mercury/water-filling rule: power = (W - mercury_level)^+ with
mercury_level = (1/lam) * G(1/(W*lam)).  Total spent energy is continuous
and non-decreasing in W, so W is located by bracketed root finding on the
energy residual.  Gaussian inputs reduce to the classical (W - 1/lam)^+
water-filling, for which :func:`classical_wf` also provides the exact
sorted-gain solution with no iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import ConvergenceError, InvalidInputError, TableRangeError
from .tables import MmseTable

__all__ = ["EpochProblem", "EpochSolution", "power_at_level", "solve_epoch", "classical_wf"]

ENERGY_RTOL = 1e-9
MAX_ITER = 200


@dataclass(frozen=True)
class EpochProblem:
    """One epoch: gains (K x L) over L accesses, a table per stream, a budget."""

    gains: NDArray[np.float64]        # (K, L), linear power gains > 0
    tables: tuple[MmseTable, ...]     # one per stream
    budget: float                     # Joules, spent exactly over the epoch
    ts: float                         # symbol duration, seconds

    def __post_init__(self):
        g = np.asarray(self.gains, dtype=float)
        if g.ndim != 2:
            raise InvalidInputError("gains must be a (streams x accesses) matrix")
        if g.size == 0:
            raise InvalidInputError("epoch has no gain entries")
        if not np.all(np.isfinite(g)) or np.any(g <= 0.0):
            raise InvalidInputError("all gains must be finite and > 0")
        if len(self.tables) != g.shape[0]:
            raise InvalidInputError("need exactly one table per stream")
        if not math.isfinite(self.budget) or self.budget < 0.0:
            raise InvalidInputError(f"budget must be finite and >= 0, got {self.budget!r}")
        if not self.ts > 0.0:
            raise InvalidInputError(f"ts must be > 0, got {self.ts!r}")
        object.__setattr__(self, "gains", g)


@dataclass(frozen=True)
class EpochSolution:
    water_level: float
    powers: NDArray[np.float64]       # (K, L)
    spent_energy: float
    hg_calls: int = 1


def power_at_level(table: MmseTable, lam, level):
    """Power of one stream at water level ``level``: zero once level*lam <= 1.

    Accepts scalar or vector ``lam``; strictly increasing in ``level`` once
    positive, which is what makes the epoch bisection valid.
    """
    scalar = np.isscalar(lam)
    lam_v = np.atleast_1d(np.asarray(lam, dtype=float))
    if np.any(lam_v <= 0.0) or not np.all(np.isfinite(lam_v)):
        raise InvalidInputError("gain must be finite and > 0")
    if not (math.isfinite(level) and level >= 0.0):
        raise InvalidInputError(f"water level must be finite and >= 0, got {level!r}")
    out = np.zeros_like(lam_v)
    if level > 0.0:
        psi = np.minimum(1.0 / (level * lam_v), 1.0)
        out = table.mmse_inverse(psi) / lam_v
    return float(out[0]) if scalar else out


def _spent(problem: EpochProblem, level: float) -> float:
    if level <= 0.0:
        return 0.0
    total = 0.0
    for k, tab in enumerate(problem.tables):
        total += float(np.sum(power_at_level(tab, problem.gains[k], level)))
    return problem.ts * total


def _powers(problem: EpochProblem, level: float) -> NDArray[np.float64]:
    powers = np.zeros_like(problem.gains)
    if level > 0.0:
        for k, tab in enumerate(problem.tables):
            powers[k] = power_at_level(tab, problem.gains[k], level)
    return powers


def _level_cap(problem: EpochProblem) -> float:
    """Largest level the tables can model; inf when all streams are Gaussian."""
    cap = math.inf
    for k, tab in enumerate(problem.tables):
        if tab.is_gaussian:
            continue
        cap = min(cap, 1.0 / (float(problem.gains[k].max()) * tab.mmse_floor))
    return cap


def solve_epoch(problem: EpochProblem) -> EpochSolution:
    """Find the water level spending the budget exactly (relative 1e-9).

    Zero budgets return level 0 with all powers zero.  A budget whose level
    would push some stream past its table range raises TableRangeError
    naming the stream (counted from 1) and the level cap; failure to
    converge raises ConvergenceError with the final bracket.
    """
    if problem.budget == 0.0:
        return EpochSolution(0.0, np.zeros_like(problem.gains), 0.0, hg_calls=1)

    cap = _level_cap(problem)
    lo = 0.0
    hi = 1.0 / float(problem.gains.min())   # level at which even the weakest entry activates
    spent_hi = _spent(problem, hi)
    while spent_hi < problem.budget:
        if hi >= cap:
            k_bad = min(
                (k for k, t in enumerate(problem.tables) if not t.is_gaussian),
                key=lambda k: 1.0 / (problem.gains[k].max() * problem.tables[k].mmse_floor),
            )
            raise TableRangeError(
                f"budget {problem.budget!r} J needs a water level beyond the "
                f"modeled snr range of stream {k_bad + 1} "
                f"({problem.tables[k_bad].label}), which caps it at {cap!r}; "
                f"rebuild with larger snr_max"
            )
        lo = hi
        hi = min(hi * 4.0, cap)
        spent_hi = _spent(problem, hi)

    if spent_hi == problem.budget:
        level = hi
    else:
        level = _bisect_level(problem, lo, hi, spent_hi)
    powers = _powers(problem, level)
    powers, spent = _settle_residual(problem, powers)
    if abs(spent - problem.budget) > ENERGY_RTOL * problem.budget:
        raise ConvergenceError(
            f"epoch bisection left an energy residual of "
            f"{abs(spent - problem.budget) / problem.budget:.3e} (relative)",
            bracket=(lo, hi),
        )
    return EpochSolution(float(level), powers, spent, hg_calls=1)


def _settle_residual(problem, powers):
    """Spread the sub-lattice energy residue uniformly over active entries.

    When the level sits at very large 1/lam floors, one ulp of W moves the
    spent energy by more than the 1e-9 contract, so no representable level
    hits the budget exactly.  The leftover is at most a few W-lattice steps
    of energy; splitting it across active entries perturbs each power by
    less than one lattice step and leaves the stationarity residual at the
    same machine-noise scale.
    """
    spent = problem.ts * float(powers.sum())
    budget = problem.budget
    for _ in range(64):
        delta = budget - spent
        if abs(delta) <= 0.5 * ENERGY_RTOL * budget:
            break
        active = powers > 0.0
        m = int(active.sum())
        if m == 0:
            break
        per = delta / (problem.ts * m)
        powers = np.maximum(powers + per * active, 0.0)
        spent = problem.ts * float(powers.sum())
    return powers, spent


def _bisect_level(problem: EpochProblem, lo: float, hi: float, spent_hi: float) -> float:
    """Residual-terminated bracketed search for the water level.

    Plain bisection interleaved with Illinois-damped secant steps; stops when
    the spent energy hits the budget to ENERGY_RTOL relative, or the bracket
    collapses to adjacent doubles (whichever is first).  Spent energy is
    continuous and non-decreasing in the level, so the bracket is always
    valid.
    """
    budget = problem.budget
    tol = ENERGY_RTOL * budget
    f_lo = _spent(problem, lo) - budget
    f_hi = spent_hi - budget
    if abs(f_lo) <= tol:
        return lo
    if abs(f_hi) <= tol:
        return hi
    side = 0
    best_x, best_f = hi, abs(f_hi)
    for it in range(MAX_ITER):
        if it % 2 == 0 or f_hi == f_lo:
            x = 0.5 * (lo + hi)
        else:
            x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
            if not (lo < x < hi):
                x = 0.5 * (lo + hi)
        if x <= lo or x >= hi:  # bracket exhausted at machine precision
            break
        fx = _spent(problem, x) - budget
        if abs(fx) < best_f:
            best_x, best_f = x, abs(fx)
        if abs(fx) <= tol:
            return x
        if fx < 0.0:
            lo, f_lo = x, fx
            if side == -1:
                f_hi *= 0.5
            side = -1
        else:
            hi, f_hi = x, fx
            if side == 1:
                f_lo *= 0.5
            side = 1
    return best_x


def classical_wf(gains, budget: float, ts: float = 1.0) -> EpochSolution:
    """Exact Gaussian-input water-filling via the sorted-gain method.

    ``gains`` may have any shape; powers come back in the same shape.
    No bisection: the active set is found by scanning the sorted floors.
    """
    g = np.asarray(gains, dtype=float)
    if g.size == 0:
        raise InvalidInputError("empty gain set")
    if not np.all(np.isfinite(g)) or np.any(g <= 0.0):
        raise InvalidInputError("all gains must be finite and > 0")
    if not math.isfinite(budget) or budget < 0.0:
        raise InvalidInputError(f"budget must be finite and >= 0, got {budget!r}")
    if not ts > 0.0:
        raise InvalidInputError(f"ts must be > 0, got {ts!r}")
    if budget == 0.0:
        return EpochSolution(0.0, np.zeros_like(g), 0.0, hg_calls=1)
    floors = np.sort(1.0 / g.ravel())
    target = budget / ts
    csum = np.cumsum(floors)
    m_range = np.arange(1, floors.size + 1)
    levels = (target + csum) / m_range
    feasible = levels > floors  # level must sit above the last active floor
    m = int(np.nonzero(feasible)[0].max()) + 1
    level = float((target + csum[m - 1]) / m)
    powers = np.maximum(level - 1.0 / g, 0.0)
    return EpochSolution(level, powers, ts * float(powers.sum()), hg_calls=1)
