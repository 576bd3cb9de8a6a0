"""Causal flowing-window allocation.

The transmitter re-plans at every *event* (a channel-state change or an
energy arrival, plus access 1): the energy currently in the battery is
spread over the next ``f_w`` accesses by the per-epoch solver, assuming the
channel stays at its current gains.  Powers up to the next event are
committed; the rest of the plan is discarded when the next event arrives.
Accesses past the window of the last plan before an event stay silent.

Only causal information enters each plan -- energy harvested at accesses
<= s_t minus energy already committed before s_t, and the gains at s_t --
so committed powers are invariant to any perturbation of the future.
"""

from __future__ import annotations

import numpy as np

from .errors import _integer, _real
from .offline import Allocation, RunStats, _ledger, _solve, stream_tables
from .scenario import Scenario
from .tables import MmseTable
from .waterfill import _raised

__all__ = ["detect_events", "online_solve", "causal_ecc_check"]


def detect_events(scenario: Scenario) -> list[int]:
    """Sorted accesses where the gains change or a packet arrives; includes 1."""
    ev = {1}
    ev.update(e for e, _ in scenario.arrivals)
    changed = np.any(scenario.gains[:, 1:] != scenario.gains[:, :-1], axis=0)
    ev.update(int(i) + 2 for i in np.nonzero(changed)[0])
    return sorted(ev)


def online_solve(
    scenario: Scenario,
    f_w: int,
    tables: tuple[MmseTable, ...] | None = None,
) -> Allocation:
    """Causal allocation with flowing window ``f_w`` (accesses, >= 1)."""
    _integer(f_w, "flowing window")
    tables = stream_tables(scenario, tables)
    events = detect_events(scenario)
    arrivals = dict(scenario.arrivals)
    n = scenario.n
    powers = np.zeros((scenario.k, n))
    access_levels = np.zeros(n)
    stats = RunStats()
    harvested = 0.0
    spent = 0.0
    for t, s_t in enumerate(events):
        harvested += arrivals.get(s_t, 0.0)
        available = max(harvested - spent, 0.0)
        w_end = min(s_t + f_w - 1, n)
        frozen = np.repeat(scenario.gains[:, s_t - 1 : s_t], w_end - s_t + 1, axis=1)
        sol = _raised(_solve(tables, scenario.ts, stats, [(frozen, available, s_t)])[0])
        commit_end = events[t + 1] - 1 if t + 1 < len(events) else n
        upto = min(w_end, commit_end)
        powers[:, s_t - 1 : upto] = sol.powers[:, : upto - s_t + 1]
        access_levels[s_t - 1 : upto] = sol.water_level
        spent += scenario.ts * float(powers[:, s_t - 1 : commit_end].sum())
    return Allocation(
        powers=powers,
        pool_water_levels=np.full(scenario.n_arrivals, np.nan),
        access_water_levels=access_levels,
        epoch_of_pool=np.full(scenario.n_arrivals, -1, dtype=np.int64),
        epochs=(),
        stats=stats,
    )


def causal_ecc_check(scenario: Scenario, alloc: Allocation, tol: float = 1e-9):
    """(ok, worst_violation): at every access, prefix spent <= prefix harvested + tol * total."""
    tol = _real(tol, "tol", strict=True)
    harvested, spent = _ledger(scenario, scenario.pools, alloc.powers)
    viol = float(np.max(spent - harvested, initial=0.0))
    return viol <= tol * scenario.total_energy, viol
