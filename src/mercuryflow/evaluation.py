"""Baselines, mutual-information scoring, energy sweeps, complexity ensembles.

Baselines against the optimal offline allocation ("mwflow", the merge-based
solver):

* ``pbp-hgwf`` -- mercury/water-filling pool by pool: each pool spends its
  own packet inside itself, no water flows across pools.
* ``pbp-wf``   -- classical Gaussian water-filling pool by pool, scored
  under the true constellations.
* ``dwf``      -- the Gaussian-optimal offline allocation, scored under the
  true constellations.  A Gaussian input's mercury factor is 1, so this is
  directional water-filling in closed form per epoch: :func:`dwf_solve` is
  :func:`mercuryflow.offline.dwf_reference`.
* ``online``   -- the causal flowing-window algorithm.

All scoring goes through the per-stream mmse tables, in bits summed over
streams and accesses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from ._textout import emit
from .errors import InvalidInputError, _integer, _reals
from .offline import (
    Allocation,
    RunStats,
    _assemble,
    _solve_groups,
    dwf_reference,
    fsa_solve,
    nda_solve,
    stream_tables,
)
from .online import online_solve
from .scenario import Scenario, _generate_args, generate, rescale_energy
from .tables import MmseTable

__all__ = [
    "SWEEP_STRATEGIES",
    "SweepResult",
    "ComplexityEnsemble",
    "evaluate_mi",
    "run_strategy",
    "pbp_solve",
    "dwf_solve",
    "best_window",
    "sweep_energy",
    "complexity_ensemble",
    "sweep_csv",
    "complexity_csv",
    "trace_csv",
]

# the strategies an energy sweep runs when none are named
SWEEP_STRATEGIES = ("mwflow", "online", "pbp-hgwf", "pbp-wf", "dwf")


def evaluate_mi(
    scenario: Scenario,
    alloc: Allocation,
    tables: tuple[MmseTable, ...] | None = None,
) -> float:
    """Total mutual information of an allocation in bits.

    Sum over streams and accesses of mi_k(lambda * power), evaluated on the
    per-stream tables (snr beyond a truncated table top scores at the
    saturated value, which is exact at double precision).
    """
    if alloc.powers.shape != (scenario.k, scenario.n):
        raise InvalidInputError("allocation shape does not match the scenario")
    tables = stream_tables(scenario, tables)
    total = 0.0
    for k, tab in enumerate(tables):
        total += float(np.sum(tab.mi_at(scenario.gains[k] * alloc.powers[k])))
    return total


def pbp_solve(
    scenario: Scenario,
    inputs: str = "tables",
    tables: tuple[MmseTable, ...] | None = None,
) -> Allocation:
    """Pool-by-pool allocation: each packet is spent inside its own pool.

    ``inputs="tables"`` uses the mercury/water-filling epoch solver;
    ``inputs="gaussian"`` uses exact classical water-filling.  Either is the
    first round of NDA on the same tables (``mwflow``, or ``dwf`` for
    Gaussian inputs), and takes its pools from the scenario's single-pool
    solves, made once per tables tuple and shared by NDA, dwf, pbp and FSA.
    """
    if inputs not in ("tables", "gaussian"):
        raise InvalidInputError(f"inputs must be 'tables' or 'gaussian', got {inputs!r}")
    tables = None if inputs == "gaussian" else stream_tables(scenario, tables)
    stats, groups = RunStats(), [[p] for p in scenario.pools]
    return _assemble(scenario, groups, _solve_groups(scenario, tables, groups, stats), stats)


# offline optimum for Gaussian inputs, whatever the scenario's constellations
dwf_solve = dwf_reference


# each CLI strategy's solver, looked up by name when called (a rebound name is the one run)
_SOLVERS = {
    "mwflow": lambda s, f_w, tables: nda_solve(s, tables=tables),
    "nda": lambda s, f_w, tables: nda_solve(s, tables=tables),
    "fsa": lambda s, f_w, tables: fsa_solve(s, tables=tables),
    "online": lambda s, f_w, tables: online_solve(s, f_w, tables=tables),
    "pbp-hgwf": lambda s, f_w, tables: pbp_solve(s, "tables", tables=tables),
    "pbp-wf": lambda s, f_w, tables: pbp_solve(s, "gaussian"),
    "dwf": lambda s, f_w, tables: dwf_solve(s),
}


def _solver(name: str):
    """The solver of strategy ``name``, else InvalidInputError naming it."""
    if not isinstance(name, str) or name not in _SOLVERS:
        raise InvalidInputError(f"unknown strategy {name!r}")
    return _SOLVERS[name]


def run_strategy(
    scenario: Scenario,
    name: str,
    f_w: int | None = None,
    tables: tuple[MmseTable, ...] | None = None,
) -> Allocation:
    """Dispatch a strategy by CLI name."""
    return _solver(name)(scenario, f_w, tables)


def best_window(
    scenario: Scenario,
    candidates=None,
    tables: tuple[MmseTable, ...] | None = None,
) -> tuple[int, dict[int, float]]:
    """Train the flowing window: the MI-maximizing f_w over ``candidates``.

    Defaults to every window in 1..N; ties resolve to the smallest window.
    Returns (best_f_w, {f_w: mi_bits}).
    """
    tables = stream_tables(scenario, tables)
    cands = list(candidates) if candidates is not None else list(range(1, scenario.n + 1))
    if not cands:
        raise InvalidInputError("window candidates must not be empty")
    scores = {}
    for f_w in cands:
        alloc = online_solve(scenario, f_w, tables=tables)
        scores[f_w] = evaluate_mi(scenario, alloc, tables=tables)
    best = max(sorted(scores), key=lambda f: scores[f])
    return best, scores


def _map(fn, tasks: list, jobs: int, first: Scenario) -> list:
    """``fn`` over ``tasks`` in order on ``jobs`` processes, which inherit ``first``'s tables."""
    stream_tables(first)
    if jobs > 1:
        # imported here: the process pool and multiprocessing are 2 MB a serial run never needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, tasks))
    return [fn(t) for t in tasks]


# ---------------------------------------------------------------------------
# energy sweep
# ---------------------------------------------------------------------------

@dataclass
class SweepResult:
    energies: NDArray[np.float64]
    curves: dict[str, NDArray[np.float64]]   # strategy -> MI bits per energy

    def dominance_gap(self) -> float:
        """Most any baseline exceeds mwflow, in bits (<= 0 when dominated)."""
        if "mwflow" not in self.curves:
            raise InvalidInputError("dominance needs the mwflow curve")
        ref = self.curves["mwflow"]
        gap = -np.inf
        for name, curve in self.curves.items():
            if name != "mwflow":
                gap = max(gap, float(np.max(curve - ref)))
        return gap


def _sweep_point(args) -> tuple[int, dict[str, float]]:
    i, scenario, strategies, f_w = args
    tables = stream_tables(scenario)
    out = {}
    for name in strategies:
        alloc = run_strategy(scenario, name, f_w=f_w, tables=tables)
        out[name] = evaluate_mi(scenario, alloc, tables=tables)
    return i, out


def sweep_energy(
    base_params: dict,
    energy_grid,
    strategies=SWEEP_STRATEGIES,
    f_w: int | None = None,
    jobs: int = 1,
) -> SweepResult:
    """MI of each strategy versus total harvested energy.

    ``base_params`` are :func:`mercuryflow.scenario.generate` arguments
    without ``total_energy``; the same seed is reused at every grid point
    with the packet energies rescaled, so curves differ only in scale.
    ``f_w`` is required when ``online`` is among the strategies; it,
    ``jobs``, the strategy names and ``base_params`` (no unknown key, none
    missing) are checked before any scenario is drawn, any table built or any
    scenario solved.
    """
    _integer(jobs, "jobs")
    if "online" in strategies:
        _integer(f_w, "f_w, the online strategy's flowing window,")
    try:   # the energies by the real-number rule, under the grid's own message
        grid = _reals(energy_grid, "energy", strict=True)
    except InvalidInputError:
        grid = np.empty(0)
    if grid.ndim != 1 or grid.size == 0:
        raise InvalidInputError("energy grid must be non-empty and positive")
    if not strategies:
        raise InvalidInputError("strategies must not be empty")
    for name in strategies:
        _solver(name)
    _generate_args(base_params, supplied=("total_energy",))
    base = generate(total_energy=1.0, **base_params)
    tasks = [
        (i, rescale_energy(base, E), tuple(strategies), f_w)
        for i, E in enumerate(grid)
    ]
    curves = {name: np.zeros(grid.size) for name in strategies}
    for i, point in _map(_sweep_point, tasks, jobs, base):
        for name, mi in point.items():
            curves[name][i] = mi
    return SweepResult(energies=grid, curves=curves)


# ---------------------------------------------------------------------------
# complexity ensemble
# ---------------------------------------------------------------------------

@dataclass
class ComplexityEnsemble:
    j_values: tuple[int, ...]
    seeds: dict[int, list[int]]              # J -> seed per run
    nda_calls: dict[int, list[int]]
    fsa_calls: dict[int, list[int]]
    fitted_q: float
    fitted_p: float

    def bounds_ok(self) -> bool:
        """Every sample inside the analytic best/worst call bounds."""
        for j in self.j_values:
            if any(not (j <= c <= 2 * j - 1) for c in self.nda_calls[j]):
                return False
            if any(not (1 <= c <= j * (j + 1) // 2) for c in self.fsa_calls[j]):
                return False
        return True


def _complexity_run(args) -> tuple[int, int, int, int]:
    j, seed, params = args
    scenario = generate(j=j, seed=seed, **params)
    tables = stream_tables(scenario)
    a = nda_solve(scenario, tables=tables)
    f = fsa_solve(scenario, tables=tables)
    return j, seed, a.stats.hg_calls, f.stats.hg_calls


def complexity_ensemble(
    j_grid,
    runs: int,
    params: dict | None = None,
    base_seed: int = 1000,
    jobs: int = 1,
) -> ComplexityEnsemble:
    """Record solver call counts over seeded scenarios and fit the averages.

    The mean-call models fitted by least squares are
    ``E{C_nda} = J(q+1) - q`` and ``E{C_fsa} = (J^2/2 + J/2 - 1) p + 1``.
    ``params`` are :func:`generate` arguments other than ``j`` and ``seed``,
    each required one given but ``n`` (2 J by default), else SchemaError
    before a scenario is drawn; the default is a light
    single-stream Gaussian setup with two accesses per pool and uniformly
    random packet energies.
    """
    j_values = tuple(_integer(j, "every J") for j in j_grid)
    if not j_values:
        raise InvalidInputError("j_grid must not be empty")
    _integer(runs, "runs")
    _integer(jobs, "jobs")
    used = {j: params if params is not None else {
        "k": 1,
        "ts": 1.0,
        "total_energy": j,
        "constellations": ("gaussian",),
        "gain_model": "static",
    } for j in j_values}
    _generate_args(used[j_values[0]], supplied=("j", "seed"), optional=("n",))
    tasks = [(j, base_seed + 7919 * j + r, {"n": 2 * j, **used[j]})
             for j in j_values for r in range(runs)]
    first = generate(j=tasks[0][0], seed=tasks[0][1], **tasks[0][2])
    seeds = {j: [] for j in j_values}
    nda_calls = {j: [] for j in j_values}
    fsa_calls = {j: [] for j in j_values}
    for j, seed, cn, cf in _map(_complexity_run, tasks, jobs, first):
        seeds[j].append(seed)
        nda_calls[j].append(cn)
        fsa_calls[j].append(cf)

    # least squares through the model forms, one mean point per J
    num_q = den_q = num_p = den_p = 0.0
    for j in j_values:
        mean_n = float(np.mean(nda_calls[j]))
        mean_f = float(np.mean(fsa_calls[j]))
        xq = j - 1.0
        num_q += (mean_n - j) * xq
        den_q += xq * xq
        xp = j * j / 2.0 + j / 2.0 - 1.0
        num_p += (mean_f - 1.0) * xp
        den_p += xp * xp
    fitted_q = num_q / den_q if den_q > 0 else float("nan")
    fitted_p = num_p / den_p if den_p > 0 else float("nan")
    return ComplexityEnsemble(
        j_values=j_values,
        seeds=seeds,
        nda_calls=nda_calls,
        fsa_calls=fsa_calls,
        fitted_q=fitted_q,
        fitted_p=fitted_p,
    )


# ---------------------------------------------------------------------------
# CSV writers
# ---------------------------------------------------------------------------

def sweep_csv(result: SweepResult, path_or_buf=None) -> str | None:
    rows = [(e, name, mi) for name, curve in result.curves.items()
            for e, mi in zip(result.energies, curve)]
    return emit(("energy", "strategy", "mi_bits"), zip(*rows), path_or_buf)


def complexity_csv(ens: ComplexityEnsemble, path_or_buf=None) -> str | None:
    rows = [(j, seed, alg, c) for j in ens.j_values
            for alg, calls in (("nda", ens.nda_calls), ("fsa", ens.fsa_calls))
            for seed, c in zip(ens.seeds[j], calls[j])]
    return emit(("J", "seed", "alg", "calls"), zip(*rows), path_or_buf)


def trace_csv(
    scenario: Scenario,
    alloc: Allocation,
    tables: tuple[MmseTable, ...] | None = None,
    path_or_buf=None,
) -> str | None:
    """Per-access levels: (n, k, inv_gain, mercury_level, water_level, power)."""
    tables = stream_tables(scenario, tables)
    w = alloc.access_water_levels
    lam = scenario.gains
    psi = np.full(lam.shape, np.inf)
    pos = w > 0.0
    psi[:, pos] = 1.0 / (w[pos] * lam[:, pos])
    mercury = np.array(
        [tab.mercury_factor(np.minimum(psi[k], 1.0)) for k, tab in enumerate(tables)]
    ) / lam
    n, k = np.indices((scenario.n, scenario.k)).reshape(2, -1) + 1   # rows n-major
    return emit(("n", "k", "inv_gain", "mercury_level", "water_level", "power"),
                (n, k, (1.0 / lam).T.ravel(), mercury.T.ravel(), w[n - 1],
                 alloc.powers.T.ravel()), path_or_buf)
