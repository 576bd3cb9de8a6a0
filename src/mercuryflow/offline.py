"""Offline mercury/water-flowing allocation over all channel accesses.

Every pool-based scheduler here cuts the pools into epochs and solves each
epoch for one water level with :func:`_solve_groups`, the one entry for every
run of pools; ``RunStats.hg_calls`` counts the epochs it returns.  It solves a
pool alone once per scenario and tables tuple: NDA's and dwf's first rounds,
the pool-by-pool baselines and FSA's one-pool candidates share that solve, and
each run still counts it in its own ``RunStats``.  Two optimal algorithms
compute the same allocation:

* :func:`nda_solve` solves every pool alone in one batch, then works in
  rounds: each merges every disjoint pair of neighbouring groups whose water
  level decreases and re-solves them in one batch, until none decreases
  (pool-adjacent violators).  The epochs and the ``2 J - #epochs`` solver
  calls are the paper's NDA; the merge order and ``spent_evals`` are not.
* :func:`fsa_solve` searches forward for transition pools: the candidate
  first epoch spans all remaining pools; while any energy-causality
  constraint inside it is violated, the last pool is dropped; on success the
  next epoch starts at the first excluded pool.

Range policy: a group whose budget needs a water level beyond the tables'
cap comes back from :func:`_solve_groups` as a :class:`TableRangeError` whose
message starts ``accesses s-e:``, the group's first and last access.  It
stands at level +inf, and a level falls whenever the next one is strictly
lower, with no margin (:func:`_falls`): NDA merges on every fall, so such a
group merges with the next; FSA drops such a multi-pool candidate like one
that breaks causality.  An error left among the final epochs is raised, and
so is FSA's first dropped one if any level falls from one final epoch to the
next.  A group's ConvergenceError gets the same prefix and is raised at once.

Optimality of either output is checked by :func:`kkt_verify`: per-stream
stationarity, cumulative energy causality with a terminally empty battery,
non-decreasing water levels, and level changes only at empty-battery
boundaries.  :func:`dwf_reference` provides the Gaussian-input closed-form
solution (classical water-filling per epoch, no bisection) as an independent
cross-check and as the ``dwf`` baseline.
"""

from __future__ import annotations

import io
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from ._textout import emit
from .errors import ConvergenceError, InvalidInputError, TableRangeError, _real, _reals
from .scenario import Pool, Scenario, build_pools
from .tables import MmseTable, table_for
from .waterfill import EpochSolution, _classical_wfs, _Epoch, solve_epochs

# what solving a group gives: its epoch, or the TableRangeError it ran into
_Solved = EpochSolution | TableRangeError

# the allocation CSV's columns, in the order the writer gives them
_CSV_COLUMNS = ("n", "k", "lambda", "sigma2", "water_level", "pool", "epoch")

__all__ = [
    "Pool",
    "Epoch",
    "RunStats",
    "Allocation",
    "KktReport",
    "build_pools",
    "stream_tables",
    "nda_solve",
    "fsa_solve",
    "dwf_reference",
    "kkt_verify",
    "allocation_csv",
    "allocation_from_csv",
]


@dataclass(frozen=True)
class Epoch:
    """A maximal run of pools sharing one water level (1-based pool indices)."""

    pools: tuple[int, ...]
    water_level: float


@dataclass
class RunStats:
    hg_calls: int = 0
    spent_evals: int = 0      # spent-energy evaluations over all epoch solves


@dataclass
class Allocation:
    """Powers plus the water-level structure that produced them.

    ``pool_water_levels`` and ``epoch_of_pool`` are NaN/-1 for allocations
    without a per-pool level structure (the online algorithm re-plans inside
    pools); ``access_water_levels`` is always populated.
    """

    powers: NDArray[np.float64]                 # (K, N) radiated power, W
    pool_water_levels: NDArray[np.float64]      # (J,)
    access_water_levels: NDArray[np.float64]    # (N,)
    epoch_of_pool: NDArray[np.int64]            # (J,), -1 when undefined
    epochs: tuple[Epoch, ...]
    stats: RunStats = field(default_factory=RunStats)


def stream_tables(scenario: Scenario, tables=None) -> tuple[MmseTable, ...]:
    """The one place a scenario gets its mmse tables, one per stream.

    With ``tables`` None, the cached default table of each stream's
    constellation.  Given ``tables``, they come back as a tuple when there
    is one per stream and each was built for its stream's constellation
    (equal ``cache_key()``; any ``snr_max`` or grid), else InvalidInputError
    naming the stream and both labels.
    """
    if tables is None:
        return tuple(table_for(c) for c in scenario.constellations)
    tables = tuple(tables)
    count = f"{len(tables)} tables for {scenario.k} streams"
    for k, c in enumerate(scenario.constellations, 1):
        if k > len(tables):
            raise InvalidInputError(f"stream {k} ({c.label}) has no table: {count}")
        got = tables[k - 1].constellation
        if got.cache_key() != c.cache_key():
            raise InvalidInputError(f"stream {k} is {c.label}, but its table is for {got.label}")
    if len(tables) > scenario.k:
        raise InvalidInputError(count)
    return tables


def _solve(tables, ts: float, stats: RunStats, epochs) -> list[_Solved]:
    """Solve each ``(gains, budget, first access)`` as one epoch, counted in ``stats``.

    All go through one batch: exact Gaussian water-filling with
    ``tables=None``, else :func:`solve_epochs`; no epoch is checked again.  An
    epoch's error gets the prefix ``accesses s-e:``; the first ConvergenceError
    is raised, and a TableRangeError returned (the module's range policy).
    """
    stats.hg_calls += len(epochs)
    sols = (list(_classical_wfs([g for g, _, _ in epochs], [b for _, b, _ in epochs], ts))
            if tables is None else solve_epochs([_Epoch(g, tables, b, ts) for g, b, _ in epochs]))
    for i, ((gains, _, start), sol) in enumerate(zip(epochs, sols)):
        if isinstance(sol, EpochSolution):
            stats.spent_evals += sol.evals
            continue
        sols[i] = type(sol)(f"accesses {start}-{start + gains.shape[1] - 1}: {sol}")
        if isinstance(sol, ConvergenceError):
            raise sols[i]
    return sols


def _solve_groups(
    scenario: Scenario,
    tables: tuple[MmseTable, ...] | None,
    groups: Sequence[Sequence[Pool]],
    stats: RunStats,
) -> list[_Solved]:
    """Solve each run of pools as its own epoch, in group order and one batch of :func:`_solve`.

    A lone pool's solve is kept with the scenario per tables tuple and served from there
    after; longer runs are solved every time.  A ConvergenceError is raised and nothing of
    its batch kept.  ``stats`` counts each slot as the solve it stands for, and a kept
    TableRangeError comes back as a fresh instance, so a run's counts, errors and bytes do
    not depend on what ran on the scenario before.
    """
    kept = scenario._pool_solves.setdefault(tables, [None] * len(scenario.pools))
    todo = [g for g in groups if len(g) > 1 or kept[g[0].index - 1] is None]
    fresh = iter(_solve(tables, scenario.ts, RunStats(), [
        (scenario.gains[:, g[0].start - 1 : g[-1].end], sum(p.energy for p in g), g[0].start)
        for g in todo]) if todo else ())
    sols = []
    for g in groups:
        i = g[0].index - 1
        if len(g) == 1 and kept[i] is None:
            sol = next(fresh)
            if isinstance(sol, EpochSolution):   # its own read-only copy, not a batch's view
                powers = sol.powers.copy()
                powers.flags.writeable = False
                sol = EpochSolution(sol.water_level, powers, sol.spent_energy, sol.evals)
            kept[i] = sol
        sols.append(next(fresh) if len(g) > 1 else kept[i])
    stats.hg_calls += len(sols)
    stats.spent_evals += sum(sol.evals for sol in sols if isinstance(sol, EpochSolution))
    return [type(sol)(*sol.args) if isinstance(sol, TableRangeError) else sol for sol in sols]


def _falls(first: _Solved, second: _Solved) -> bool:
    """Whether the water level falls from one solved group to the next: ``w0 > w1``.

    A returned TableRangeError stands at level +inf.
    """
    w0, w1 = (math.inf if isinstance(s, TableRangeError) else s.water_level
              for s in (first, second))
    return w0 > w1


def _assemble(
    scenario: Scenario,
    groups: list[Sequence[Pool]],
    sols: list[_Solved],
    stats: RunStats,
) -> Allocation:
    for sol in sols:
        if isinstance(sol, TableRangeError):
            raise sol
    # the groups are consecutive and cover every pool, so each array is one pass
    sizes = [len(grp) for grp in groups]
    pool_levels = np.repeat([sol.water_level for sol in sols], sizes)
    return Allocation(
        powers=np.hstack([sol.powers for sol in sols]),
        pool_water_levels=pool_levels,
        access_water_levels=pool_levels[scenario.pool_of_access - 1],
        epoch_of_pool=np.repeat(np.arange(len(groups), dtype=np.int64), sizes),
        epochs=tuple(Epoch(pools=tuple(p.index for p in grp), water_level=sol.water_level)
                     for grp, sol in zip(groups, sols)),
        stats=stats,
    )


def _nda_loop(scenario: Scenario, tables: tuple[MmseTable, ...] | None) -> Allocation:
    """NDA in rounds of disjoint merges: the paper's epochs and calls, not its merge order."""
    stats = RunStats()
    groups: list[list[Pool]] = [[p] for p in scenario.pools]
    sols = _solve_groups(scenario, tables, groups, stats)
    while True:
        pairs: list[int] = []
        for i, fell in enumerate(map(_falls, sols, sols[1:])):
            if fell and not (pairs and pairs[-1] == i - 1):
                pairs.append(i)
        if not pairs:
            return _assemble(scenario, groups, sols, stats)
        merged = _solve_groups(scenario, tables, [groups[i] + groups[i + 1] for i in pairs], stats)
        for i, sol in zip(reversed(pairs), reversed(merged)):
            groups[i : i + 2] = [groups[i] + groups[i + 1]]
            sols[i : i + 2] = [sol]


def nda_solve(scenario: Scenario, tables: tuple[MmseTable, ...] | None = None) -> Allocation:
    """Optimal offline allocation by the non-decreasing water level algorithm."""
    return _nda_loop(scenario, stream_tables(scenario, tables))


def dwf_reference(scenario: Scenario) -> Allocation:
    """Gaussian-input closed-form reference: exact water-filling per epoch."""
    return _nda_loop(scenario, None)


def fsa_solve(
    scenario: Scenario,
    ecc_oracle=None,
    tables: tuple[MmseTable, ...] | None = None,
) -> Allocation:
    """Optimal offline allocation by the forward transition-pool search.

    ``ecc_oracle``, a testing hook, replaces the energy-causality verdicts:
    entry ``i`` is True when the constraint at the boundary after pool
    ``i + 1`` holds.  With an oracle injected only the call count of the
    returned stats is meaningful.
    """
    tables = stream_tables(scenario, tables)
    pools = scenario.pools
    n_pools = len(pools)
    if ecc_oracle is not None and len(ecc_oracle) != n_pools - 1:
        raise InvalidInputError(
            f"ecc_oracle must give {n_pools - 1} boundary verdicts, got {len(ecc_oracle)}"
        )
    slack = 1e-9 * scenario.total_energy
    stats = RunStats()
    groups: list[Sequence[Pool]] = []
    sols: list[_Solved] = []
    dropped: list[TableRangeError] = []
    start = 0
    while start < n_pools:
        end = n_pools
        while True:
            group = pools[start:end]
            sol, = _solve_groups(scenario, tables, [group], stats)
            if isinstance(sol, TableRangeError) and len(group) > 1:
                dropped.append(sol)
            elif _epoch_ecc_ok(scenario, group, sol, ecc_oracle, slack):
                break
            end -= 1  # drop the last pool and retry
        groups.append(group)
        sols.append(sol)
        start = end
    if dropped and any(map(_falls, sols, sols[1:])):
        raise dropped[0]
    return _assemble(scenario, groups, sols, stats)


def _epoch_ecc_ok(scenario, group, sol, ecc_oracle, slack) -> bool:
    """Energy causality at every pool boundary strictly inside the epoch."""
    if len(group) == 1:
        return True
    if ecc_oracle is not None:
        return all(ecc_oracle[p.index - 1] for p in group[:-1])
    harvested, spent = _ledger(scenario, group, sol.powers)
    ends = [p.end - group[0].start for p in group[:-1]]
    return not np.any(spent[ends] > harvested[ends] + slack)


def _ledger(scenario: Scenario, pools: Sequence[Pool], powers) -> tuple[NDArray, NDArray]:
    """Harvested and spent energy summed from the first access of a run of pools.

    ``powers`` covers the run's accesses; entry ``i`` of each prefix sum is
    the energy up to and including the run's ``i``-th access, the packets
    added pool by pool in arrival order.
    """
    packets = np.zeros(powers.shape[1])
    packets[[p.start - pools[0].start for p in pools]] = [p.energy for p in pools]
    return np.cumsum(packets), np.cumsum(scenario.ts * powers.sum(axis=0))


# ---------------------------------------------------------------------------
# KKT verification
# ---------------------------------------------------------------------------

@dataclass
class KktReport:
    stationarity_ok: bool
    stationarity_max_residual: float
    ecc_ok: bool
    ecc_max_violation: float
    terminal_ok: bool
    terminal_gap: float
    monotone_levels_ok: bool
    empty_battery_changes_ok: bool
    messages: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return (
            self.stationarity_ok
            and self.ecc_ok
            and self.terminal_ok
            and self.monotone_levels_ok
            and self.empty_battery_changes_ok
        )


def kkt_verify(
    scenario: Scenario,
    alloc: Allocation,
    tol: float = 1e-7,
    tables: tuple[MmseTable, ...] | None = None,
) -> KktReport:
    """Check the sufficient optimality conditions of an offline allocation.

    (1) stationarity: active streams satisfy W * lam * mmse(lam * power) = 1
    to ``tol`` relative, inactive streams satisfy W * lam <= 1 + tol;
    (2) cumulative energy causality at every pool boundary, with an empty
    battery at the end, to ``tol`` times the total energy; (3) water levels
    non-decreasing across pools; (4) level increases only where the battery
    emptied.  Pool levels must be finite and >= 0, and powers finite and
    >= 0, else InvalidInputError: an online allocation, which has no pool
    levels, raises it; so does a ``tol`` that is not finite and > 0.
    """
    tol = _real(tol, "tol", strict=True)
    if alloc.powers.shape != (scenario.k, scenario.n):
        raise InvalidInputError(
            f"allocation shape {alloc.powers.shape} does not match scenario "
            f"{(scenario.k, scenario.n)}"
        )
    tables = stream_tables(scenario, tables)
    pools = scenario.pools
    if alloc.pool_water_levels.shape != (len(pools),):
        raise InvalidInputError("allocation pool levels do not match the pool count")
    _reals(alloc.pool_water_levels, "pool water levels (an online allocation has none)")
    bad = ~(np.isfinite(alloc.powers) & (alloc.powers >= 0.0))
    if bad.any():
        n, k = np.argwhere(bad.T)[0].tolist()
        raise InvalidInputError(f"allocation power of stream {k + 1} access {n + 1} must be "
                                f"finite and >= 0, got {float(alloc.powers[k, n])!r}")

    # (1) stationarity on (K, N) masks: one table call per stream, notes access-major
    lam, on = scenario.gains, alloc.powers > 0.0
    w_lam = alloc.pool_water_levels[scenario.pool_of_access - 1] * lam
    snr = lam * alloc.powers
    beyond = on & np.array([tab._past_top(row) for tab, row in zip(tables, snr)])
    fit = on & ~beyond
    mmse = np.ones(snr.shape)
    for k, tab in enumerate(tables):
        mmse[k, fit[k]] = tab.mmse_at(snr[k, fit[k]])
    resid = np.abs(w_lam[fit] * mmse[fit] - 1.0)
    max_resid = float(np.max(resid, initial=0.0))
    high = ~on & (w_lam > 1.0 + tol)
    stat_ok = not (beyond.any() or (resid > tol).any() or high.any())
    msgs: list[str] = [
        f"stationarity: stream {k + 1} access {n + 1} beyond table range" if beyond[k, n] else
        f"stationarity: inactive stream {k + 1} access {n + 1} has W*lam = {w_lam[k, n]:.6g} > 1"
        for n, k in zip(*np.nonzero((beyond | high).T))
    ]
    if not stat_ok and not msgs:
        msgs.append(f"stationarity: max residual {max_resid:.3e} > tol {tol:.1e}")

    # (2) energy causality, terminal empty battery
    scale = scenario.total_energy
    harvested, spent = _ledger(scenario, pools, alloc.powers)
    ends = [p.end - 1 for p in pools]
    batteries = harvested[ends] - spent[ends]
    viol = np.maximum(0.0, -batteries)
    over = viol > tol * scale
    for j in np.nonzero(over)[0].tolist():
        msgs.append(f"ecc: pool {j + 1} overspends by {viol[j]:.3e} J")
    terminal_gap = float(abs(batteries[-1]))
    terminal_ok = terminal_gap <= tol * scale
    if not terminal_ok:
        msgs.append(f"terminal battery not empty: {batteries[-1]:.3e} J left")

    # (3) non-decreasing water levels, (4) changing only where the battery emptied
    levels = alloc.pool_water_levels
    step = tol * np.maximum(1.0, np.abs(levels[:-1]))
    falls = levels[1:] < levels[:-1] - step
    for j in np.nonzero(falls)[0].tolist():
        msgs.append(
            f"water level decreases from pool {j + 1} ({levels[j]:.6g}) "
            f"to pool {j + 2} ({levels[j + 1]:.6g})"
        )
    banked = (levels[1:] > levels[:-1] + step) & (batteries[:-1] > tol * scale)
    for j in np.nonzero(banked)[0].tolist():
        msgs.append(f"water level rises after pool {j + 1} with {batteries[j]:.3e} J banked")

    return KktReport(
        stationarity_ok=stat_ok,
        stationarity_max_residual=max_resid,
        ecc_ok=not over.any(),
        ecc_max_violation=float(np.max(viol)),
        terminal_ok=terminal_ok,
        terminal_gap=terminal_gap,
        monotone_levels_ok=not falls.any(),
        empty_battery_changes_ok=not banked.any(),
        messages=msgs,
    )


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def allocation_from_csv(scenario: Scenario, text: str) -> Allocation:
    """Rebuild an allocation from its CSV export.

    The file must agree with itself and with the scenario: each ``lambda``
    is the scenario's gain, the rows of one pool carry one epoch, and either
    every epoch is -1 (an online export: no pool levels, no epochs) or the
    epochs run 1, 2, ... over consecutive pools and the rows of one epoch
    carry one water level.  Else InvalidInputError naming the row or pool.
    """
    import csv as _csv

    pools, n_pools = scenario.pools, scenario.n_arrivals
    powers = np.zeros((scenario.k, scenario.n))
    seen = np.zeros(powers.shape, dtype=bool)
    levels = np.full(powers.shape, np.nan)
    epochs = np.full(powers.shape, -1, dtype=np.int64)
    reader = _csv.DictReader(io.StringIO(text))
    need = set(_CSV_COLUMNS)
    if reader.fieldnames is None or not need.issubset(reader.fieldnames):
        raise InvalidInputError(
            f"allocation CSV must have columns {sorted(need)}, got {reader.fieldnames}"
        )
    for row in reader:
        try:
            n, k, pool, epoch = (int(row[c]) for c in ("n", "k", "pool", "epoch"))
            lam, power, level = (float(row[c]) for c in ("lambda", "sigma2", "water_level"))
        except (TypeError, ValueError):
            msg = f"allocation CSV line {reader.line_num} has a non-numeric field"
            raise InvalidInputError(msg) from None
        if not (1 <= n <= scenario.n and 1 <= k <= scenario.k):
            raise InvalidInputError(f"allocation row ({n}, {k}) outside the scenario")
        if pool != scenario.pool_of_access[n - 1]:
            raise InvalidInputError(f"allocation row ({n}, {k}): pool {pool}, but access {n} "
                                    f"is in pool {scenario.pool_of_access[n - 1]}")
        if not (epoch == -1 or 1 <= epoch <= n_pools):
            raise InvalidInputError(
                f"allocation row ({n}, {k}): epoch {epoch} neither -1 nor in 1..{n_pools}")
        if lam != scenario.gains[k - 1, n - 1]:
            raise InvalidInputError(f"allocation row ({n}, {k}): lambda {lam!r}, but the "
                                    f"scenario's gain is {float(scenario.gains[k - 1, n - 1])!r}")
        if seen[k - 1, n - 1]:
            raise InvalidInputError(f"allocation row ({n}, {k}) repeated")
        seen[k - 1, n - 1] = True
        powers[k - 1, n - 1] = power
        levels[k - 1, n - 1] = level
        epochs[k - 1, n - 1] = epoch
    if not seen.all():
        raise InvalidInputError("allocation CSV does not cover every (n, k)")
    for p in pools:
        pool_epochs, pool_levels = (np.unique(a[:, p.start - 1 : p.end]) for a in (epochs, levels))
        if pool_epochs.size > 1:
            raise InvalidInputError(
                f"allocation pool {p.index}: rows carry epochs {pool_epochs.tolist()}")
        if pool_epochs[0] != -1 and pool_levels.size > 1:
            raise InvalidInputError(
                f"allocation pool {p.index}: rows carry water levels {pool_levels.tolist()}")
    starts = [p.start - 1 for p in pools]
    pool_epochs, pool_levels = epochs[0, starts], levels[0, starts]
    if (pool_epochs == -1).all():  # an online export: no pool levels, no epochs
        return Allocation(powers, np.full(n_pools, np.nan), levels[0], pool_epochs, ())
    steps = np.diff(pool_epochs, prepend=0)
    bad = np.flatnonzero((steps < 0) | (steps > 1))
    if bad.size:
        raise InvalidInputError(f"allocation pool {bad[0] + 1}: epoch {pool_epochs[bad[0]]}, but "
                                f"epochs must all be -1 or run 1, 2, ... over consecutive pools")
    moved = np.flatnonzero((steps[1:] == 0) & (pool_levels[1:] != pool_levels[:-1]))
    if moved.size:
        j = moved[0] + 1  # the 0-based pool whose level differs from the pool before it
        raise InvalidInputError(f"allocation pool {j + 1}: water level {float(pool_levels[j])!r}, "
                                f"but pool {j} of its epoch has {float(pool_levels[j - 1])!r}")
    runs = np.split(np.arange(1, n_pools + 1), np.flatnonzero(steps[1:]) + 1)
    return Allocation(
        powers=powers,
        pool_water_levels=pool_levels,
        access_water_levels=levels[0],
        epoch_of_pool=pool_epochs - 1,
        epochs=tuple(Epoch(tuple(m.tolist()), float(pool_levels[m[0] - 1])) for m in runs),
    )


def allocation_csv(scenario: Scenario, alloc: Allocation, path_or_buf=None) -> str | None:
    """Rows (n, k, lambda, sigma2, water_level, pool, epoch); 1-based indices."""
    n, k = np.indices((scenario.n, scenario.k)).reshape(2, -1) + 1   # rows n-major
    pool = scenario.pool_of_access[n - 1]
    epoch = alloc.epoch_of_pool[pool - 1]
    return emit(_CSV_COLUMNS, (n, k, scenario.gains.T.ravel(), alloc.powers.T.ravel(),
                               alloc.access_water_levels[n - 1], pool,
                               np.where(epoch >= 0, epoch + 1, -1)), path_or_buf)
