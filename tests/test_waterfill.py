import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mercuryflow import constellations as cons
from mercuryflow import tables as tb
from mercuryflow.errors import InvalidInputError, TableRangeError
from mercuryflow.waterfill import EpochProblem, classical_wf, power_at_level, solve_epoch


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
    assert sol.hg_calls == 1


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


def test_classical_wf_examples():
    sol = classical_wf(np.array([1.0, 0.5]), 3.0, ts=1.0)
    assert sol.water_level == pytest.approx(3.0)
    assert sol.powers == pytest.approx([2.0, 1.0])
    z = classical_wf(np.array([1.0]), 0.0)
    assert z.powers == pytest.approx([0.0])
    with pytest.raises(InvalidInputError):
        classical_wf(np.array([]), 1.0)


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
