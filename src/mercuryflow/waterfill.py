"""Per-epoch water-level solving.

Given channel gains over a contiguous run of accesses, one constellation
table per stream, and an energy budget that must be fully spent by the end
of the run, find the common water level W and the per-stream powers

    power = (1/lam) * mmse_inverse(min(1, 1/(W*lam))),

which is the mercury/water-filling rule: power = (W - mercury_level)^+ with
mercury_level = (1/lam) * G(1/(W*lam)).  Total spent energy is continuous
and non-decreasing in W, and by the I-MMSE relation its slope is closed
form, sum over active entries of -1/(W * lam * dlog mmse/dsnr).  One packed
evaluation gives the spent energy and that slope for every stream at once,
and W is located by a bracketed Newton search on the energy residual, with
a single evaluation at the level cap to detect budgets beyond the tables'
range.  Gaussian inputs reduce to the classical (W - 1/lam)^+
water-filling, for which :func:`classical_wf` also provides the exact
sorted-gain solution with no iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import ConvergenceError, InvalidInputError, TableRangeError
from .tables import MmseTable, _bank, _invert, _query

__all__ = ["EpochProblem", "EpochSolution", "power_at_level", "solve_epoch", "classical_wf"]

ENERGY_RTOL = 1e-9
MAX_ITER = 200


@dataclass(frozen=True)
class EpochProblem:
    """One epoch: gains (K x L) over L accesses, a table per stream, a budget."""

    gains: NDArray[np.float64]        # (K, L), linear power gains > 0
    tables: tuple[MmseTable, ...]     # one per stream; any sequence, kept as a tuple
    budget: float                     # Joules, spent exactly over the epoch
    ts: float                         # symbol duration, seconds

    def __post_init__(self):
        g = _checked(self.gains, self.budget, self.ts)
        if g.ndim != 2:
            raise InvalidInputError("gains must be a (streams x accesses) matrix")
        if len(self.tables) != g.shape[0]:
            raise InvalidInputError("need exactly one table per stream")
        object.__setattr__(self, "gains", g)
        object.__setattr__(self, "tables", tuple(self.tables))


def _checked(gains, budget: float, ts: float) -> NDArray[np.float64]:
    """The gains as a float array once gains, budget and ts are inside the model."""
    g = np.asarray(gains, dtype=float)
    if g.size == 0:
        raise InvalidInputError("epoch has no gain entries")
    if not np.all(np.isfinite(g)) or np.any(g <= 0.0):
        raise InvalidInputError("all gains must be finite and > 0")
    if not math.isfinite(budget) or budget < 0.0:
        raise InvalidInputError(f"budget must be finite and >= 0, got {budget!r}")
    if not (math.isfinite(ts) and ts > 0.0):
        raise InvalidInputError(f"ts must be finite and > 0, got {ts!r}")
    return g


@dataclass(frozen=True)
class EpochSolution:
    water_level: float
    powers: NDArray[np.float64]       # (K, L)
    spent_energy: float
    evals: int = 0                    # spent-energy evaluations of the level search


@_query("gain", strict=True)
def power_at_level(table: MmseTable, lam, level):
    """Power of one stream at water level ``level``: zero once level*lam <= 1.

    Accepts scalar or vector ``lam``; strictly increasing in ``level`` once
    positive, which is what makes the epoch level search valid.
    """
    if not (math.isfinite(level) and level >= 0.0):
        raise InvalidInputError(f"water level must be finite and >= 0, got {level!r}")
    if level == 0.0:
        return np.zeros_like(lam)
    return table.mmse_inverse(np.minimum(1.0 / (level * lam), 1.0)) / lam


def _evaluate(problem: EpochProblem, bank, level: float):
    """Powers and their slopes dP/dW at water level ``level > 0``, per entry.

    Every stream goes through one packed inverse.  The slope is closed form
    by I-MMSE: an active entry's power moves as -1/(W * lam * dlog mmse/dsnr).
    An entry exactly at its activation level counts with its right slope.
    """
    lam = problem.gains
    psi = 1.0 / (level * lam)
    snr, dlog = _invert(bank, np.arange(lam.shape[0])[:, None], psi)
    return snr / lam, np.where(psi <= 1.0, -1.0 / (level * lam * dlog), 0.0)


def _level_cap(problem: EpochProblem) -> tuple[float, int]:
    """Largest level the tables can model, and the stream that sets it.

    inf (stream -1) when all streams are Gaussian.  Stepped down until no
    entry's 1/(W * lam) rounds below its table floor.
    """
    cap, k_cap = math.inf, -1
    for k, tab in enumerate(problem.tables):
        if tab.is_gaussian:
            continue
        lam_max = float(problem.gains[k].max())
        level = 1.0 / (lam_max * tab.mmse_floor)
        while 1.0 / (level * lam_max) < tab.mmse_floor:
            level = math.nextafter(level, 0.0)
        if level < cap:
            cap, k_cap = level, k
    return cap, k_cap


def _next_level(x: float, excess: float, slope: float, lo: float, hi: float,
                hi_open: bool) -> float:
    """Newton's next level from ``x``, or a midpoint of [lo, hi] if it leaves it.

    Of the Newton steps in log W and in W, the farther goes first (log W from
    below, W from above).  A log-W step past a finite cap not yet evaluated
    (``hi_open``) goes to the cap; steps that both pass one end put the root
    within rounding of it, so the next double inside is tried.
    """
    if slope > 0.0:
        in_w = x - excess / slope
        in_log = x * math.exp(min(-excess / (x * slope), 700.0))
        if hi_open and in_log >= hi and hi < math.inf:
            return hi
        for cand in ((in_log, in_w) if excess < 0.0 else (in_w, in_log)):
            if lo < cand < hi:
                return cand
        if max(in_w, in_log) <= lo:
            return math.nextafter(lo, hi)
        if min(in_w, in_log) >= hi and hi < math.inf:
            return math.nextafter(hi, lo)
    if hi == math.inf:
        return 4.0 * lo
    return 0.5 * (lo + hi) if hi <= 4.0 * lo else math.sqrt(lo) * math.sqrt(hi)


def solve_epoch(problem: EpochProblem) -> EpochSolution:
    """Find the water level spending the budget exactly (relative 1e-9).

    Zero budgets return level 0 with all powers zero.  The level search is
    a bracketed Newton iteration started at the Gaussian water level, which
    never exceeds the answer (a unit-power input's mmse is at most the
    Gaussian one).  When no double between the bracket ends spends the
    budget, the powers at the under-spending end take the shortfall along
    their slopes dP/dW: one tangent step of W.  A budget that even the
    level cap under-spends raises TableRangeError naming the stream
    (counted from 1) and the cap; failure to converge raises
    ConvergenceError with the final bracket.
    """
    if problem.budget == 0.0:
        return EpochSolution(0.0, np.zeros_like(problem.gains), 0.0)

    budget, ts = problem.budget, problem.ts
    bank = _bank(problem.tables)
    cap, k_cap = _level_cap(problem)
    # spent(lo) < budget <= spent(hi) once hi is evaluated; below the
    # strongest entry's activation level nothing is spent
    lo, hi = 1.0 / float(problem.gains.max()), cap
    spent_lo, spent_hi = 0.0, math.inf
    powers_lo = rates_lo = rates_hi = np.zeros_like(problem.gains)
    x = min(classical_wf(problem.gains, budget, ts).water_level, cap)
    for evals in range(1, MAX_ITER + 1):
        powers, rates = _evaluate(problem, bank, x)
        spent, slope = ts * float(powers.sum()), ts * float(rates.sum())
        if spent < budget and x == cap:
            raise TableRangeError(
                f"budget {budget!r} J needs a water level beyond the modeled snr range of "
                f"stream {k_cap + 1} ({problem.tables[k_cap].label}), which caps it at "
                f"{cap!r}; rebuild with larger snr_max")
        if abs(spent - budget) <= 0.5 * ENERGY_RTOL * budget:   # this level spends the budget
            level = x
            powers = np.array([power_at_level(t, g, level)
                               for t, g in zip(problem.tables, problem.gains)])
            break
        if spent < budget:
            lo, spent_lo, powers_lo, rates_lo = x, spent, powers, rates
        else:
            hi, spent_hi, rates_hi = x, spent, rates
        hi_open = spent_hi == math.inf
        x = _next_level(x, spent - budget, slope, lo, hi, hi_open)
        if not (lo < x < hi or (x == hi and hi_open)):
            # the bracket holds no double between its ends: report the end
            # with active entries nearest the budget, and step the powers
            # at lo along their slopes (those at hi if none is active at lo)
            level = lo if 0.0 < spent_lo and budget - spent_lo < spent_hi - budget else hi
            rates = rates_lo if rates_lo.any() else rates_hi
            powers = powers_lo + (budget - spent_lo) / ts * (rates / rates.sum())
            break
    else:
        raise ConvergenceError(
            f"epoch solve did not converge in {MAX_ITER} evaluations", bracket=(lo, hi)
        )
    spent = ts * float(powers.sum())
    if not abs(spent - budget) <= ENERGY_RTOL * budget:
        raise ConvergenceError(
            f"epoch solve left an energy residual of "
            f"{abs(spent - budget) / budget:.3e} (relative)",
            bracket=(lo, hi),
        )
    return EpochSolution(float(level), powers, spent, evals=evals)


def classical_wf(gains, budget: float, ts: float = 1.0) -> EpochSolution:
    """Exact Gaussian-input water-filling via the sorted-gain method.

    ``gains`` may have any shape; powers come back in the same shape.
    No bisection: the active set is found by scanning the sorted floors.
    """
    g = _checked(gains, budget, ts)
    if budget == 0.0:
        return EpochSolution(0.0, np.zeros_like(g), 0.0)
    floors = np.sort(1.0 / g.ravel())
    target = budget / ts
    csum = np.cumsum(floors)
    m_range = np.arange(1, floors.size + 1)
    levels = (target + csum) / m_range
    feasible = levels > floors  # level must sit above the last active floor
    m = int(np.nonzero(feasible)[0].max(initial=0)) + 1
    level = float((target + csum[m - 1]) / m)
    powers = np.maximum(level - 1.0 / g, 0.0)
    if not powers.any():   # below one ulp of the top floor: the strongest entry takes it all
        powers.flat[np.argmax(g)] = target
    return EpochSolution(level, powers, ts * float(powers.sum()))
