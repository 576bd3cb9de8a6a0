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
and W is located by a Newton search on the energy residual in a finite
bracket.  An epoch whose level spends its budget keeps the powers of the
evaluation that settles it.  Independent epochs that share their tables are
solved as one batch (:func:`solve_epochs`), set up in one array pass: each
keeps its own bracket and gets its solution or error in its slot, and each
Newton step makes one packed inverse over every epoch still searching;
:func:`solve_epoch` is the one-epoch case, its error raised.
Gaussian inputs reduce to the classical (W - 1/lam)^+ water-filling, whose
exact sorted-gain solution :func:`classical_wf` gives with no iteration.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import accumulate

import numpy as np
from numpy.typing import NDArray

from .errors import (NORMAL_MIN, ConvergenceError, InvalidInputError, MercuryflowError,
                     TableRangeError, _real, _reals)
from .tables import _HALF, _MINUS_ONE, _ONE, _ZERO, MmseTable, _bank, _invert, _query

__all__ = ["EpochProblem", "EpochSolution", "power_at_level", "solve_epoch", "solve_epochs",
           "classical_wf"]

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
        g, budget, ts = _checked(self.gains, self.budget, self.ts)
        if g.ndim != 2:
            raise InvalidInputError("gains must be a (streams x accesses) matrix")
        if len(self.tables) != g.shape[0]:
            raise InvalidInputError("need exactly one table per stream")
        object.__setattr__(self, "gains", g)
        object.__setattr__(self, "tables", tuple(self.tables))
        object.__setattr__(self, "budget", budget)
        object.__setattr__(self, "ts", ts)


# an EpochProblem's fields, unchecked: a scheduler's epoch, which its Scenario checked
_Epoch = namedtuple("_Epoch", "gains tables budget ts")


def _checked(gains, budget: float, ts: float) -> tuple[NDArray[np.float64], float, float]:
    """The gains as a float array, the budget and ts as floats, once each is inside the model."""
    g = _reals(gains, "gains", least=NORMAL_MIN)
    if g.size == 0:
        raise InvalidInputError("epoch has no gain entries")
    return g, _real(budget, "budget"), _real(ts, "ts", strict=True)


@dataclass(frozen=True)
class EpochSolution:
    water_level: float
    powers: NDArray[np.float64]       # (K, L)
    spent_energy: float
    evals: int = 0                    # spent-energy evaluations of the level search


@_query("gain", strict=True)
def power_at_level(table: MmseTable, lam, level):
    """Power of one stream at water level ``level``: zero once level*lam <= 1.

    Accepts scalar or vector ``lam``, and one level or an array of levels
    that broadcasts against it; strictly increasing in ``level`` once
    positive, which is what makes the epoch level search valid.  The public
    one-stream map: :func:`solve_epochs` does not call it, but at a level
    that spends an epoch's budget it gives that solver's powers bit for bit.
    """
    # min(1/(level*lam), 1) to the bit, with no division by a zero level
    return table.mmse_inverse(1.0 / np.maximum(_reals(level, "water level") * lam, 1.0)) / lam


def _evaluate(bank, rows, lam, level, at=None):
    """Powers and their slopes dP/dW at water levels ``level > 0``, per entry.

    ``rows`` names each entry's table in ``bank`` (``at`` as :func:`_invert` takes it);
    ``rows``, ``lam`` and ``level`` broadcast, so one packed inverse covers every stream of
    every epoch in a batch.  The slope is closed form by I-MMSE: an active entry's power
    moves as -1/(W * lam * dlog mmse/dsnr).  An entry at its activation level counts with
    its right slope; a power past the largest double is inf.
    """
    # an entry below half its activation level is inactive (psi > 1) either
    # way; raising its level * lam to 0.5 keeps psi and its slope finite
    # where the product underflows
    lw = np.maximum(level * lam, _HALF)
    psi = _ONE / lw
    snr, dlog = _invert(bank, rows, psi, at)
    return snr / lam, np.where(psi <= _ONE, _MINUS_ONE / (lw * dlog), _ZERO)


def _searches(problems, lam, sizes: list[int], row, bank) -> list[_Search]:
    """Each problem's search, set up in one array pass over ``lam``, its (K, L) gains in C order.

    ``sizes`` are their K*L and ``row`` each stream row's L.  A stream's cap starts at
    1/(lam_max * floor), +inf if that underflows, and steps down until no 1/(W * lam) rounds
    below its floor.  Each search starts at its Gaussian level, below its least cap and top.
    """
    floor, targets = bank[3], np.array([p.budget / p.ts for p in problems])
    lam_max = np.maximum.reduceat(lam, row.cumsum() - row).reshape(-1, floor.size)
    floors, top = 1.0 / lam, [math.inf] * len(problems)
    with np.errstate(divide="ignore", over="ignore"):
        level = 1.0 / (lam_max * floor)
        while (low := 1.0 / (level * lam_max) < floor).any():
            level = np.where(low, np.nextafter(level, 0.0), level)
        if bank[4] is not None:   # no finite entry's power is < 0: Gaussian entries bound W
            gauss = np.where(np.tile(bank[4], len(problems)).repeat(row), floors, math.inf)
            top = ((1.0 + 2.0**-20) * _wf_levels(gauss, sizes, targets)[0]).tolist()
    x, lo = _wf_levels(floors, sizes, targets)   # sorts floors in place, so it reads them last
    return list(map(_Search, problems, level.tolist(), lo.tolist(), x.tolist(), top))


def _next_level(x: float, excess: float, slope: float, lo: float, hi: float,
                hi_open: bool) -> float:
    """Newton's next level from ``x``, or a midpoint of [lo, hi] if it leaves it.

    Of the Newton steps in log W and in W, the farther goes first (log W from
    below, W from above).  A log-W step past a top not yet evaluated
    (``hi_open``) goes to the top; steps that both pass one end put the root
    within rounding of it, so the next double inside is tried.  No Newton step
    is taken when ``x * slope`` is 0, as when it underflows: the midpoint is.
    """
    if x * slope > 0.0:
        in_w = x - excess / slope
        in_log = x * math.exp(min(-excess / (x * slope), 700.0))
        if hi_open and in_log >= hi:
            return hi
        for cand in ((in_log, in_w) if excess < 0.0 else (in_w, in_log)):
            if lo < cand < hi:
                return cand
        if max(in_w, in_log) <= lo:
            return math.nextafter(lo, hi)
        if min(in_w, in_log) >= hi:
            return math.nextafter(hi, lo)
    return 0.5 * (lo + hi) if hi <= 4.0 * lo else math.sqrt(lo) * math.sqrt(hi)


class _Search:
    """One epoch's bracketed Newton search on its energy residual, one evaluation at a time.

    The bracket is finite from the start: lo is the strongest entry's activation level, below
    which nothing is spent, hi the least cap or ``top``; spent(lo) < budget <= spent(hi) once hi
    is evaluated.  ``x`` is the level to evaluate next; evaluations come flat, in C order.
    """

    def __init__(self, problem: EpochProblem, caps: list[float], lo: float, x: float, top: float):
        self.problem, self.cap = problem, min(caps)
        self.k_cap = caps.index(self.cap)
        self.lo, self.hi = lo, min(self.cap, top)
        self.spent_lo, self.spent_hi = 0.0, math.inf
        self.hi_open = True   # hi not yet evaluated: a spent energy of inf is no such sign
        self.powers_lo = self.rates_lo = self.rates_hi = np.zeros(problem.gains.size)
        self.x = min(x, self.hi)
        self.evals = 0

    def feed(self, powers, rates, power: float, rate: float):
        """Take the evaluation at ``x`` and the sums of its powers and rates: None while it goes on.

        Once it settles: the solution at ``x`` with the powers just fed when
        they spend the budget, else the solution that the tangent step
        finishes, or the error the search ran into.
        """
        self.evals += 1
        p, x, lo, hi = self.problem, self.x, self.lo, self.hi
        budget, ts = p.budget, p.ts
        spent, slope = ts * power, ts * rate
        # powers that spend budget / ts past the largest double overflow, so the cap under-spends
        if x == self.cap and (spent < budget or budget / ts == math.inf):
            return TableRangeError(
                f"budget {budget!r} J needs a water level beyond the modeled snr range of "
                f"stream {self.k_cap + 1} ({p.tables[self.k_cap].label}), which caps it at "
                f"{self.cap!r}; the table's snr_max or double precision ends that range")
        if abs(spent - budget) <= 0.5 * ENERGY_RTOL * budget:   # this level spends the budget
            return self.finish(x, powers.reshape(p.gains.shape))
        if spent < budget:
            lo = self.lo = x
            self.spent_lo, self.powers_lo, self.rates_lo = spent, powers, rates
        else:
            hi = self.hi = x
            self.spent_hi, self.rates_hi, self.hi_open = spent, rates, False
        self.x = _next_level(x, spent - budget, slope, lo, hi, self.hi_open)
        if not (lo < self.x < hi or (self.x == hi and self.hi_open)):
            # the bracket holds no double between its ends: report the end
            # with active entries nearest the budget, and step the powers
            # at lo along their slopes (those at hi if none is active at lo)
            spent_lo, spent_hi = self.spent_lo, self.spent_hi
            level = lo if 0.0 < spent_lo and budget - spent_lo < spent_hi - budget else hi
            rates = self.rates_lo if self.rates_lo.any() else self.rates_hi
            powers = self.powers_lo + (budget - spent_lo) / ts * (rates / rates.sum())
            return self.finish(level, powers.reshape(p.gains.shape))
        if self.evals == MAX_ITER:
            return ConvergenceError(f"epoch solve did not converge in {MAX_ITER} evaluations; "
                                    f"its level bracket is [{lo!r}, {hi!r}]")
        return None

    def finish(self, level: float, powers) -> EpochSolution | ConvergenceError:
        """The solution at ``level`` with ``powers``, or the error naming its energy residual."""
        budget, ts = self.problem.budget, self.problem.ts
        spent = ts * float(powers.sum())
        if not abs(spent - budget) <= ENERGY_RTOL * budget:
            return ConvergenceError(f"epoch solve left a relative energy residual of "
                                    f"{abs(spent - budget) / budget:.3e} at level {level!r}")
        return EpochSolution(float(level), powers, spent, evals=self.evals)


def solve_epochs(problems: Sequence[EpochProblem]) -> list[EpochSolution | MercuryflowError]:
    """Solve epochs that share one tables tuple as one batch, in order.

    Every problem runs the search :func:`solve_epoch` describes, with its own
    bracket and evaluation count; each Newton step evaluates every unsettled
    problem with one packed inverse, and a problem whose level spends its
    budget keeps the powers of that evaluation and leaves the batch.  Each
    problem gets what it gets alone, in its slot: its solution's bytes, or
    the TableRangeError or ConvergenceError it runs into, which is not raised.
    The schedulers pass ``_Epoch`` tuples of their Scenario's checked inputs instead.
    """
    if any(p.tables != problems[0].tables for p in problems):
        raise InvalidInputError("a batch of epochs must share one tables tuple")
    out: list = [EpochSolution(0.0, np.zeros_like(p.gains), 0.0) if p.budget == 0.0 else None
                 for p in problems]
    live = [(i, p) for i, p in enumerate(problems) if p.budget > 0.0]
    if live:
        # every live entry, problem by problem, each problem's (K, L) in C order
        bank, k = _bank(problems[0].tables), len(problems[0].tables)
        lam = np.concatenate([p.gains.ravel() for _, p in live])
        row = np.array([p.gains.shape[1] for _, p in live]).repeat(k)   # each stream row's L
        rows = (np.arange(row.size) % k).repeat(row)
        at, sizes = (bank[2][rows], bank[3][rows]), [p.gains.size for _, p in live]
        searches = _searches([p for _, p in live], lam, sizes, row, bank)
        live = [(i, s) for (i, _), s in zip(live, searches)]
    with np.errstate(over="ignore"):   # powers, and an epoch's sums, past the largest double
        while live:
            one = len(live) == 1   # then no levels to repeat and no slices to cut
            level = live[0][1].x if one else np.array([s.x for _, s in live]).repeat(sizes)
            powers, rates = _evaluate(bank, rows, lam, level, at)
            parts = [(powers, rates)] if one else [
                (powers[b - n : b], rates[b - n : b]) for b, n in zip(accumulate(sizes), sizes)]
            keep = []
            for (i, s), (p, r) in zip(live, parts):
                out[i] = s.feed(p, r, float(np.add.reduce(p)), float(np.add.reduce(r)))
                keep.append(out[i] is None)
            live = [e for e, alive in zip(live, keep) if alive]
            if live and not all(keep):   # only the entries of epochs still searching
                kept = np.repeat(keep, sizes)
                lam, rows = lam[kept], rows[kept]
                at = at[0][kept], at[1][kept]
                sizes = [n for n, alive in zip(sizes, keep) if alive]
    return out


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
    ConvergenceError naming the final level bracket.  This is the
    one-problem case of :func:`solve_epochs`, its slot's error raised.
    """
    return _raised(solve_epochs([problem])[0])


def _raised(sol):
    """A one-epoch slot's solution, or its error raised."""
    if isinstance(sol, MercuryflowError):
        raise sol
    return sol


def classical_wf(gains, budget: float, ts: float = 1.0) -> EpochSolution:
    """Exact Gaussian-input water-filling via the sorted-gain method.

    ``gains`` may have any shape; powers come back in the same shape.
    No bisection: the active set is found by scanning the sorted floors.
    A budget below about one ulp of the floors leaves the level off by that
    ulp, so, like :func:`solve_epoch`'s, the solve ends with tangent steps:
    the shortfall goes to the active entries along their slopes dP/dW, 1
    each (to the strongest entry if none is active), and a power that would
    go negative stops at 0 and leaves the rest to the next step.  Energy
    still off after one step per entry raises ConvergenceError.
    """
    g, budget, ts = _checked(gains, budget, ts)
    return _raised(next(_classical_wfs([g], [budget], ts)))


def _classical_wfs(gs, budgets, ts: float) -> Iterator[EpochSolution | ConvergenceError]:
    """Each ``(gains, budget)``'s :func:`classical_wf` slot in order, levels in one array pass.
    The float gains, budgets and ts are inside the model (``_checked``), as a Scenario's are."""
    levels = _wf_levels(1.0 / np.concatenate([g.ravel() for g in gs]), [g.size for g in gs],
                        np.array(budgets, dtype=float) / ts)[0].tolist()
    for g, budget, level in zip(gs, budgets, levels):
        powers = np.maximum(level - 1.0 / g, 0.0) if budget else np.zeros_like(g)
        for _ in range(g.size + 1):
            spent = ts * float(powers.sum())
            if abs(spent - budget) <= ENERGY_RTOL * budget:
                yield EpochSolution(level if budget else 0.0, powers, spent)
                break
            rates = (powers > 0.0).astype(float)
            if not rates.any():
                rates.flat[np.argmax(g)] = 1.0
            powers = np.maximum(powers + (budget - spent) / ts * (rates / rates.sum()), 0.0)
        else:
            yield ConvergenceError(f"water-filling left a relative energy residual of "
                                   f"{abs(spent - budget) / budget:.3e} at level {level!r}")


def _wf_levels(floors, sizes: list[int], targets):
    """Each problem's Gaussian level spending its target above its floors 1/g; its least floor."""
    if len(set(sizes)) > 1:   # rows padded to the longest with +inf, a floor no level is above
        rows = np.full((len(sizes), max(sizes)), math.inf)
        rows[np.arange(rows.shape[1]) < np.array(sizes)[:, None]] = floors
        floors = rows
    # each row sorted in place and summed in order: the bytes of a pass over its problem alone
    floors = floors.reshape(len(sizes), -1)
    floors.sort(axis=1)
    ranks = np.arange(1.0, floors.shape[1] + 1.0)
    levels = (np.add.accumulate(floors, axis=1) + targets[:, None]) / ranks
    last = ((levels > floors) * ranks).argmax(axis=1)   # the last level above its floor, else 0
    return levels.take(last + np.arange(0, levels.size, ranks.size)), floors[:, 0]
