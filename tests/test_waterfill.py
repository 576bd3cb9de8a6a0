import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mercuryflow import constellations as cons
from mercuryflow import tables as tb
from mercuryflow import waterfill as wf
from mercuryflow.errors import InvalidInputError, TableRangeError
from mercuryflow.waterfill import EpochProblem, classical_wf, power_at_level, solve_epoch

from conftest import FINITE_BUILTINS


@pytest.fixture(scope="module")
def gauss():
    return tb.table_for(cons.gaussian())


def test_power_at_level_gaussian_closed_form(gauss):
    # recovers (W - 1/lam)^+ since G == 1
    assert power_at_level(gauss, 2.0, 3.0) == pytest.approx(2.5, abs=1e-12)


def test_power_at_level_inactive_branch(gauss, builtin_tables):
    assert power_at_level(gauss, 1.0, 0.5) == 0.0
    assert power_at_level(builtin_tables["bpsk"], 1.0, 0.5) == 0.0
    assert power_at_level(builtin_tables["bpsk"], 1.0, 0.0) == 0.0


def test_power_at_level_bpsk_is_table_inverse(builtin_tables):
    t = builtin_tables["bpsk"]
    assert power_at_level(t, 1.0, 2.0) == pytest.approx(t.mmse_inverse(0.5), rel=1e-12)


def test_power_at_level_monotone_in_level(builtin_tables):
    rng = np.random.default_rng(3)
    for name in ("bpsk", "16pam", "gaussian"):
        t = builtin_tables[name]
        lam = rng.chisquare(1.0, size=6) + 0.05
        levels = np.sort(rng.uniform(0.0, 30.0, 12))
        prev = np.zeros_like(lam)
        for w in levels:
            cur = power_at_level(t, lam, float(w))
            assert np.all(cur >= prev - 1e-12)
            prev = cur


def test_solve_epoch_two_stream_gaussian(gauss):
    p = EpochProblem(
        gains=np.array([[1.0], [0.5]]), tables=(gauss, gauss), budget=3.0, ts=1.0
    )
    sol = solve_epoch(p)
    assert sol.water_level == pytest.approx(3.0, rel=1e-10)
    assert sol.powers.ravel() == pytest.approx([2.0, 1.0], rel=1e-9)


def test_solve_epoch_single_degree_of_freedom(builtin_tables):
    # one stream, one access: the whole budget goes there
    t = builtin_tables["4pam"]
    p = EpochProblem(gains=np.array([[1.7]]), tables=(t,), budget=0.8, ts=1.0)
    sol = solve_epoch(p)
    assert sol.powers[0, 0] == pytest.approx(0.8, rel=1e-9)


def test_solve_epoch_zero_budget(builtin_tables):
    t = builtin_tables["bpsk"]
    p = EpochProblem(gains=np.ones((1, 3)), tables=(t,), budget=0.0, ts=1.0)
    sol = solve_epoch(p)
    assert sol.water_level == 0.0
    assert np.all(sol.powers == 0.0)
    assert sol.spent_energy == 0.0


def test_solve_epoch_stationarity_residual(builtin_tables):
    # mixed constellations, random gains: active streams satisfy the
    # water-level condition W * lam * mmse(lam * power) = 1
    rng = np.random.default_rng(7)
    tabs = (builtin_tables["bpsk"], builtin_tables["4pam"])
    gains = rng.chisquare(1.0, size=(2, 2)) + 0.05
    p = EpochProblem(gains=gains, tables=tabs, budget=1.2, ts=1.0)
    sol = solve_epoch(p)
    assert abs(sol.spent_energy - 1.2) <= 1e-9 * 1.2
    for k, t in enumerate(tabs):
        for n in range(2):
            lam, pw = gains[k, n], sol.powers[k, n]
            if pw > 0.0:
                assert abs(lam * t.mmse_at(lam * pw) - 1.0 / sol.water_level) <= 1e-7
            else:
                assert lam * 1.0 <= 1.0 / sol.water_level + 1e-7


def test_solve_epoch_budget_conservation_random(builtin_tables):
    rng = np.random.default_rng(11)
    tabs = tuple(builtin_tables[n] for n in ("bpsk", "4pam", "16pam"))
    for _ in range(10):
        gains = rng.chisquare(1.0, size=(3, 5)) + 0.02
        budget = float(rng.uniform(0.01, 20.0))
        sol = solve_epoch(EpochProblem(gains=gains, tables=tabs, budget=budget, ts=0.01))
        assert abs(sol.spent_energy - budget) <= 1e-9 * budget


def test_solve_epoch_gaussian_equals_classical(gauss):
    rng = np.random.default_rng(2)
    g = rng.chisquare(1.0, size=8) + 0.05
    ref = classical_wf(g, 5.0, ts=1.0)
    sol = solve_epoch(EpochProblem(gains=g.reshape(1, -1), tables=(gauss,), budget=5.0, ts=1.0))
    assert np.max(np.abs(ref.powers - sol.powers.ravel())) < 1e-8


def test_solve_epoch_range_error_names_stream(builtin_tables):
    t = builtin_tables["bpsk"]
    # enough energy to drive BPSK past its table top on a single access
    need = 10.0 * t.snr_top
    with pytest.raises(TableRangeError, match=r"stream 1 \(bpsk\)") as err:
        solve_epoch(EpochProblem(gains=np.array([[1.0]]), tables=(t,), budget=need, ts=1.0))
    assert f"caps it at {1.0 / t.mmse_floor!r}" in str(err.value)


def _counting_evaluate(monkeypatch):
    calls = []
    evaluate = wf._evaluate

    def counted(*args):
        calls.append(args[2])
        return evaluate(*args)

    monkeypatch.setattr(wf, "_evaluate", counted)
    return calls


def test_solve_epoch_range_error_in_one_evaluation(builtin_tables, monkeypatch):
    # a budget even the level cap under-spends is decided by one evaluation
    # at the cap, not by walking the bracket up to it
    for name in FINITE_BUILTINS:
        t = builtin_tables[name]
        calls = _counting_evaluate(monkeypatch)
        cap = 1.0 / (1.0 * t.mmse_floor)
        with pytest.raises(TableRangeError, match=rf"stream 1 \({name}\)"):
            solve_epoch(EpochProblem(gains=np.array([[1.0, 0.5]]), tables=(t,),
                                     budget=10.0 * t.snr_top, ts=1.0))
        assert calls[-1] == cap
        assert len(calls) <= 2


def _assert_sub_lattice_solve(tabs, gains, budget, ts):
    sol = solve_epoch(EpochProblem(gains=np.array(gains), tables=tabs, budget=budget, ts=ts))
    assert abs(sol.spent_energy - budget) <= 1e-9 * budget
    assert np.all(sol.powers >= 0.0) and np.count_nonzero(sol.powers) >= 1
    floor = 1.0 / np.max(gains)
    assert floor < sol.water_level <= floor + 4 * np.spacing(floor)
    assert sol.evals <= 4


@pytest.mark.parametrize("names,gains", [
    (("bpsk",), [[1.0]]),
    (("gaussian",), [[1.0]]),
    (("bpsk", "gaussian"), [[3.0, 0.7], [1.1, 2.0]]),
])
def test_solve_epoch_sub_lattice_budget(builtin_tables, names, gains):
    # the root lies within one ulp above the strongest entry's activation
    # level, so no representable level spends the budget; the solve returns
    # the end of the collapsed bracket that has an active entry and steps
    # the powers along their slopes to spend the budget
    _assert_sub_lattice_solve(tuple(builtin_tables[n] for n in names), gains, 1.7e-18, 1.0)


_CRUMB_GAINS = [1.8259023316173926, 0.04853189319861556, 0.08130829985051354, 0.00968547284204158]


@pytest.mark.parametrize("names,gains,budget,ts", [
    # far below one W-ulp of energy: every share of the step stays positive
    (("32pam",), [[1.0, 1.0]], 1e-300, 1.0),
    # an online plan of the ensemble pool: no entry is active at the lower end
    (("bpsk", "4pam", "16pam", "32pam"), [[g, g] for g in _CRUMB_GAINS],
     1.734723475976807e-18, 0.01),
])
def test_solve_epoch_tangent_step_far_below_the_lattice(builtin_tables, names, gains, budget, ts):
    _assert_sub_lattice_solve(tuple(builtin_tables[n] for n in names), gains, budget, ts)


def _ulp_gain(t):
    """A gain whose level cap rounds 1/(cap * gain) one ulp below the floor."""
    for lam in np.random.default_rng(1).uniform(0.1, 10.0, 100_000):
        if 1.0 / (1.0 / (lam * t.mmse_floor) * lam) < t.mmse_floor:
            return float(lam)
    raise AssertionError("no such gain")


@pytest.mark.parametrize("name", ["bpsk", "32pam"])
def test_solve_epoch_cap_never_trips_the_table_floor(builtin_tables, name):
    t = builtin_tables[name]
    lam = _ulp_gain(t)
    problem = EpochProblem(gains=np.array([[lam]]), tables=(t,), budget=1.0, ts=1.0)
    cap, k_cap = wf._level_cap(problem)
    assert k_cap == 0 and cap < 1.0 / (lam * t.mmse_floor)
    top = power_at_level(t, lam, cap)   # no raw floor error at the cap itself
    # a budget the cap just covers solves at a level inside the tables
    sol = solve_epoch(EpochProblem(gains=np.array([[lam]]), tables=(t,),
                                   budget=top * (1.0 - 1e-12), ts=1.0))
    assert sol.water_level <= cap
    # one the cap under-spends raises the solver's typed error, naming the cap
    with pytest.raises(TableRangeError, match=rf"stream 1 \({name}\)") as err:
        solve_epoch(EpochProblem(gains=np.array([[lam]]), tables=(t,), budget=2.0 * top, ts=1.0))
    assert f"caps it at {cap!r}" in str(err.value)


def test_solve_epoch_counts_evaluations(builtin_tables):
    tabs = (builtin_tables["bpsk"], builtin_tables["16pam"])
    gains = np.random.default_rng(4).chisquare(1.0, size=(2, 6)) + 0.05
    sol = solve_epoch(EpochProblem(gains=gains, tables=tabs, budget=0.5, ts=0.01))
    assert 1 <= sol.evals <= 12
    zero = solve_epoch(EpochProblem(gains=gains, tables=tabs, budget=0.0, ts=0.01))
    assert zero.evals == 0


_MIXED = st.lists(st.sampled_from((*FINITE_BUILTINS, "gaussian")), min_size=1, max_size=4)


@settings(max_examples=200, deadline=None)
@given(names=_MIXED, n_access=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_level_cap_is_the_top_level_inside_every_floor(builtin_tables, names, n_access, seed):
    tabs = tuple(builtin_tables[n] for n in names)
    gains = 10.0 ** np.random.default_rng(seed).uniform(-300.0, 300.0, (len(tabs), n_access))
    cap, k = wf._level_cap(EpochProblem(gains=gains, tables=tabs, budget=1.0, ts=1.0))
    if k == -1:
        assert cap == math.inf and all(t.is_gaussian for t in tabs)
        return
    floor, lam_max = tb._bank(tabs)[3], gains.max(axis=1)
    up = math.nextafter(cap, math.inf)
    with np.errstate(divide="ignore", over="ignore"):
        assert floor[k] > 0.0 and not np.any(1.0 / (cap * lam_max) < floor)
        # the next double up trips a floor, unless the cap is the largest finite
        # double or the setting stream's start 1/(lam_max * floor), not stepped
        assert (up == math.inf or cap == 1.0 / (lam_max[k] * floor[k])
                or np.any(1.0 / (up * lam_max) < floor))


@settings(max_examples=60, deadline=None)
@given(names=_MIXED, n_access=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       u=st.floats(0.0, 1.0))
def test_evaluator_matches_per_stream_powers_and_slope(builtin_tables, names, n_access, seed, u):
    tabs = tuple(builtin_tables[n] for n in names)
    gains = np.exp(np.random.default_rng(seed).uniform(np.log(1e-2), np.log(1e2),
                                                      size=(len(tabs), n_access)))
    problem = EpochProblem(gains=gains, tables=tabs, budget=1.0, ts=0.01)
    cap = min(wf._level_cap(problem)[0], 1e6 / gains.min())
    lo = 0.5 / gains.max()
    level = float(lo * (cap / lo) ** u)
    powers, rates = wf._evaluate(problem, tb._bank(tabs), level)
    spent, slope = 0.01 * float(powers.sum()), 0.01 * float(rates.sum())
    for k, t in enumerate(tabs):
        ref = power_at_level(t, gains[k], level)
        assert np.all(np.abs(powers[k] - ref) <= 1e-12 * np.abs(ref))
    assert spent == pytest.approx(0.01 * sum(power_at_level(t, gains[k], level).sum()
                                             for k, t in enumerate(tabs)), rel=1e-12)
    # central difference, away from activation kinks and the cap
    h = 1e-5 * level
    assume(level + h < cap and np.all(np.abs(level * gains - 1.0) > 4e-5 * level * gains))
    diff = 0.01 * (wf._evaluate(problem, tb._bank(tabs), level + h)[0].sum()
                   - wf._evaluate(problem, tb._bank(tabs), level - h)[0].sum()) / (2.0 * h)
    assert slope == pytest.approx(diff, rel=1e-6, abs=1e-300)


def test_classical_wf_examples():
    sol = classical_wf(np.array([1.0, 0.5]), 3.0, ts=1.0)
    assert sol.water_level == pytest.approx(3.0)
    assert sol.powers == pytest.approx([2.0, 1.0])
    z = classical_wf(np.array([1.0]), 0.0)
    assert z.powers == pytest.approx([0.0])
    with pytest.raises(InvalidInputError):
        classical_wf(np.array([]), 1.0)
    with pytest.raises(InvalidInputError, match="finite"):
        classical_wf(np.ones(2), 1.0, ts=math.inf)
    with pytest.raises(InvalidInputError, match="normal doubles"):   # 1/1e-310 overflows
        classical_wf(np.array([1e-310, 1e-310]), 1.0)


def test_classical_wf_sub_ulp_budget():
    # below one ulp of the top floor no level above it exists: the strongest
    # entry takes the whole budget at that floor
    sol = classical_wf(np.array([1.0, 0.5]), 1e-18, ts=1.0)
    assert sol.water_level == 1.0
    assert sol.powers.tolist() == [1e-18, 0.0]
    assert sol.spent_energy == 1e-18


def test_classical_wf_preserves_shape():
    g = np.array([[1.0, 2.0], [0.5, 4.0]])
    sol = classical_wf(g, 2.0, ts=0.5)
    assert sol.powers.shape == g.shape
    assert sol.spent_energy == pytest.approx(2.0, rel=1e-12)


def test_epoch_problem_validation(gauss):
    with pytest.raises(InvalidInputError):
        EpochProblem(gains=np.array([[0.0]]), tables=(gauss,), budget=1.0, ts=1.0)
    with pytest.raises(InvalidInputError):
        EpochProblem(gains=np.ones((1, 1)), tables=(gauss,), budget=-1.0, ts=1.0)
    with pytest.raises(InvalidInputError):
        EpochProblem(gains=np.ones((2, 1)), tables=(gauss,), budget=1.0, ts=1.0)
    with pytest.raises(InvalidInputError):
        EpochProblem(gains=np.ones((1, 1)), tables=(gauss,), budget=1.0, ts=0.0)
    with pytest.raises(InvalidInputError, match="finite"):
        EpochProblem(gains=np.ones((1, 2)), tables=(gauss,), budget=1.0, ts=math.inf)
    for bad in (1e-310, math.nan, math.inf):   # a subnormal gain's 1/gain overflows
        with pytest.raises(InvalidInputError, match="normal doubles"):
            EpochProblem(gains=np.array([[1.0, bad]]), tables=(gauss,), budget=1.0, ts=1.0)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.floats(min_value=0.05, max_value=20.0), min_size=1, max_size=6),
    st.floats(min_value=1e-6, max_value=50.0),
)
def test_classical_wf_properties(gains, budget):
    g = np.asarray(gains)
    sol = classical_wf(g, budget, ts=1.0)
    assert np.all(sol.powers >= 0.0)
    assert sol.spent_energy == pytest.approx(budget, rel=1e-9)
    active = sol.powers > 0.0
    # active streams sit exactly at W - 1/lam; inactive floors are above W
    assert np.allclose(sol.powers[active], sol.water_level - 1.0 / g[active], rtol=1e-9)
    assert np.all(1.0 / g[~active] >= sol.water_level - 1e-12)
