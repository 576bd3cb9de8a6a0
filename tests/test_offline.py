import dataclasses
import math
import re

import numpy as np
import pytest

from mercuryflow import constellations as cons
from mercuryflow import evaluation as ev
from mercuryflow import offline as off
from mercuryflow import online as onl
from mercuryflow import scenario as scn
from mercuryflow import waterfill as wf
from mercuryflow.errors import ConvergenceError, InvalidInputError, TableRangeError


def gaussian_scenario(energies, n, gains=None, k=1, ts=1.0):
    gains = np.ones((k, n)) if gains is None else gains
    arrivals = tuple(energies)
    return scn.Scenario(
        n=n, k=k, ts=ts, gains=gains, arrivals=arrivals,
        constellations=(cons.gaussian(),) * k,
    )


# ---------------------------------------------------------------------------
# pools
# ---------------------------------------------------------------------------

def test_build_pools_single():
    pools = off.build_pools([(1, 2.0)], n=5)
    assert len(pools) == 1
    assert (pools[0].start, pools[0].end, pools[0].energy) == (1, 5, 2.0)


def test_build_pools_two():
    pools = off.build_pools([(1, 1.0), (3, 2.0)], n=4)
    assert [(p.start, p.end) for p in pools] == [(1, 2), (3, 4)]
    assert pools[1].start == 3


def test_build_pools_requires_initial_arrival():
    with pytest.raises(InvalidInputError):
        off.build_pools([(2, 1.0)], n=4)


def test_build_pools_rejects_disorder():
    with pytest.raises(InvalidInputError):
        off.build_pools([(1, 1.0), (1, 2.0)], n=4)
    with pytest.raises(InvalidInputError):
        off.build_pools([(1, 1.0), (9, 2.0)], n=4)


@pytest.mark.parametrize("packet", [math.nan, math.inf])
def test_build_pools_rejects_nonfinite_packets(packet):
    with pytest.raises(InvalidInputError, match="finite"):
        off.build_pools([(1, 1.0), (3, packet)], n=4)


def test_scenario_carries_its_pools():
    s = scn.generate(n=30, k=2, ts=0.01, j=6, total_energy=2.0,
                     constellations=("bpsk", "4pam"), seed=11)
    assert s.pools == tuple(off.build_pools(s.arrivals, s.n))
    r = scn.rescale_energy(s, 6.0)
    assert r.pools == tuple(off.build_pools(r.arrivals, r.n))
    assert [p.energy for p in r.pools] == [E for _, E in r.arrivals]
    assert [p.energy for p in r.pools] != [p.energy for p in s.pools]


def test_scenario_maps_each_access_to_its_pool():
    s = gaussian_scenario([(1, 1.0), (3, 1.0), (4, 2.0)], n=6)
    assert s.pool_of_access.tolist() == [1, 1, 2, 3, 3, 3]
    assert s.pool_of_access.dtype == np.int64
    moved = dataclasses.replace(s, arrivals=((1, 1.0), (5, 1.0)))
    assert moved.pool_of_access.tolist() == [1, 1, 1, 1, 2, 2]
    assert scn.rescale_energy(s, 8.0).pool_of_access.tolist() == [1, 1, 2, 3, 3, 3]


# ---------------------------------------------------------------------------
# NDA fixtures
# ---------------------------------------------------------------------------

def test_nda_non_decreasing_levels_stay_split():
    s = gaussian_scenario([(1, 1.0), (2, 3.0)], n=2)
    a = off.nda_solve(s)
    assert a.pool_water_levels == pytest.approx([2.0, 4.0], rel=1e-9)
    assert a.powers.ravel() == pytest.approx([1.0, 3.0], rel=1e-9)
    assert a.stats.hg_calls == 2
    assert len(a.epochs) == 2


def test_nda_merges_decreasing_levels():
    s = gaussian_scenario([(1, 3.0), (2, 1.0)], n=2)
    a = off.nda_solve(s)
    assert a.pool_water_levels == pytest.approx([3.0, 3.0], rel=1e-9)
    assert a.powers.ravel() == pytest.approx([2.0, 2.0], rel=1e-9)
    assert a.stats.hg_calls == 3  # 2 initial + 1 merge
    assert len(a.epochs) == 1
    assert off.kkt_verify(s, a).passed


def test_nda_merge_count_bounds():
    rng = np.random.default_rng(0)
    for _ in range(10):
        j = int(rng.integers(2, 7))
        n = int(rng.integers(j, 15))
        s = scn.generate(n=n, k=1, ts=1.0, j=j, total_energy=4.0,
                         constellations=("gaussian",), gain_model="static",
                         seed=int(rng.integers(1 << 30)))
        a = off.nda_solve(s)
        jj = s.n_arrivals
        assert jj <= a.stats.hg_calls <= 2 * jj - 1


def test_nda_calls_are_two_j_minus_epochs(builtin_tables):
    # every merge costs one call and removes one epoch, in any merge order
    rng = np.random.default_rng(3)
    for _ in range(20):
        j = int(rng.integers(1, 9))
        n = int(rng.integers(j, 3 * j + 1))
        k = int(rng.integers(1, 3))
        s = scn.generate(n=n, k=k, ts=0.01, j=j, total_energy=float(rng.uniform(0.05, 2.0)),
                         constellations=(("gaussian",), ("bpsk", "16pam"))[k - 1],
                         gain_model="block_random", block_len=2,
                         seed=int(rng.integers(1 << 30)))
        a = off.nda_solve(s)
        assert a.stats.hg_calls == 2 * s.n_arrivals - len(a.epochs)


def test_run_stats_count_spent_evaluations(monkeypatch):
    s = scn.generate(n=12, k=2, ts=0.01, j=3, total_energy=1.0, constellations=("bpsk", "16pam"),
                     gain_model="block_random", block_len=2, seed=9)
    evals = []
    solve = off.solve_epochs

    def counted(problems):
        sols = solve(problems)
        evals.extend(sol.evals for sol in sols)
        return sols

    monkeypatch.setattr(off, "solve_epochs", counted)
    for run in (off.nda_solve, off.fsa_solve, lambda sc: onl.online_solve(sc, 3)):
        evals.clear()
        a = run(s)
        assert len(evals) == a.stats.hg_calls
        assert 0 < a.stats.spent_evals == sum(evals)


def test_nda_merged_epoch_merges_again():
    # levels 4, 3, 2: pools 1+2 merge to 3.5, which still exceeds pool 3's 2
    s = gaussian_scenario([(1, 3.0), (2, 2.0), (3, 1.0)], n=3)
    a = off.nda_solve(s)
    assert [e.pools for e in a.epochs] == [(1, 2, 3)]
    assert a.stats.hg_calls == 5  # 3 singletons + 2 merges
    assert a.pool_water_levels == pytest.approx([3.0, 3.0, 3.0], rel=1e-9)
    assert a.powers.ravel() == pytest.approx([2.0, 2.0, 2.0], rel=1e-9)


# ---------------------------------------------------------------------------
# FSA
# ---------------------------------------------------------------------------

def test_fsa_single_epoch_single_call():
    s = gaussian_scenario([(1, 3.0), (2, 1.0)], n=2)
    a = off.fsa_solve(s)
    assert a.stats.hg_calls == 1
    nda = off.nda_solve(s)
    assert np.allclose(a.powers, nda.powers, atol=1e-9)


def test_fsa_oracle_example():
    s = gaussian_scenario([(1, 1.0), (2, 1.0), (3, 1.0)], n=3)
    a = off.fsa_solve(s, ecc_oracle=(False, True))
    assert a.stats.hg_calls == 4


TABLE_3 = {(True, True): 1, (True, False): 3, (False, True): 4, (False, False): 6}
TABLE_4 = {
    (True, True, True): 1, (True, True, False): 3, (True, False, True): 4,
    (False, True, True): 5, (True, False, False): 6, (False, True, False): 7,
    (False, False, True): 8, (False, False, False): 10,
}
TABLE_5 = {
    (True, True, True, True): 1, (True, True, True, False): 3,
    (True, True, False, True): 4, (True, False, True, True): 5,
    (False, True, True, True): 6, (True, True, False, False): 6,
    (True, False, True, False): 7, (False, True, True, False): 8,
    (True, False, False, True): 8, (False, True, False, True): 9,
    (False, False, True, True): 10, (True, False, False, False): 10,
    (False, True, False, False): 11, (False, False, True, False): 12,
    (False, False, False, True): 13, (False, False, False, False): 15,
}


@pytest.mark.parametrize("table,j", [(TABLE_3, 3), (TABLE_4, 4), (TABLE_5, 5)])
def test_fsa_oracle_call_counts(table, j):
    s = gaussian_scenario([(i + 1, 1.0) for i in range(j)], n=j)
    for pattern, calls in table.items():
        a = off.fsa_solve(s, ecc_oracle=pattern)
        assert a.stats.hg_calls == calls, pattern


def test_fsa_oracle_length_checked():
    s = gaussian_scenario([(1, 1.0), (2, 1.0)], n=2)
    with pytest.raises(InvalidInputError):
        off.fsa_solve(s, ecc_oracle=(True, True, False))


# ---------------------------------------------------------------------------
# NDA == FSA and KKT on random scenarios
# ---------------------------------------------------------------------------

def test_nda_fsa_agree_on_random_scenarios(builtin_tables):
    rng = np.random.default_rng(42)
    names = ("bpsk", "4pam", "16pam", "32pam")
    for _ in range(30):
        n = int(rng.integers(4, 30))
        j = int(rng.integers(1, min(7, n) + 1))
        k = int(rng.integers(1, 5))
        s = scn.generate(
            n=n, k=k, ts=0.01, j=j, total_energy=float(rng.uniform(0.02, 2.0)),
            constellations=names[:k], gain_model="block_random", block_len=4,
            seed=int(rng.integers(1 << 30)),
        )
        tabs = off.stream_tables(s)
        a = off.nda_solve(s, tables=tabs)
        f = off.fsa_solve(s, tables=tabs)
        scale = max(float(a.powers.max()), 1e-12)
        assert np.max(np.abs(a.powers - f.powers)) <= 1e-6 * scale
        assert off.kkt_verify(s, a, tables=tabs).passed
        assert off.kkt_verify(s, f, tables=tabs).passed


_FUZZ_NAMES = ("gaussian", "bpsk", "4pam", "16pam", "32pam")


def _wide_range_scenario(rng):
    """Gains log-uniform in 1e-6..1e6, packets in 1e-6..1e3 J (20% zero), ts in e^-7..1."""
    n, k = int(rng.integers(1, 13)), int(rng.integers(1, 5))
    j = int(rng.integers(1, n + 1))
    gains = np.exp(rng.uniform(np.log(1e-6), np.log(1e6), size=(k, n)))
    later = rng.choice(np.arange(2, n + 1), size=j - 1, replace=False) if j > 1 else []
    accesses = np.sort(np.concatenate(([1], later))).astype(int)
    packets = np.exp(rng.uniform(np.log(1e-6), np.log(1e3), size=j)) * (rng.random(j) >= 0.2)
    ts = float(np.exp(rng.uniform(-7.0, 0.0)))
    names = [_FUZZ_NAMES[i] for i in rng.integers(0, len(_FUZZ_NAMES), size=k)]
    return scn.Scenario(
        n=n, k=k, ts=ts, gains=gains, arrivals=tuple(zip(accesses.tolist(), packets.tolist())),
        constellations=tuple(cons.by_name(c) for c in names),
    )


def _solve_or_range_error(solve):
    try:
        return solve()
    except TableRangeError as err:
        assert re.search(r"^accesses \d+-\d+: .*stream \d+ \(\w+\), which caps it at \S+",
                         str(err)), str(err)
        return None


def test_wide_range_fuzz_gate():
    # seeds 690, 1211, 2003 and 2869 mix Gaussian and finite streams: their searches
    # top out just above the Gaussian entries' own level, far under a finite stream's cap
    solved = 0
    for seed in range(3000):
        s = _wide_range_scenario(np.random.default_rng(seed))
        tabs = off.stream_tables(s)
        a = _solve_or_range_error(lambda: off.nda_solve(s, tables=tabs))
        f = _solve_or_range_error(lambda: off.fsa_solve(s, tables=tabs))
        for name in ("dwf", "pbp-wf"):
            ev.run_strategy(s, name)
        assert (a is None) == (f is None), f"seed {seed}: only one of nda, fsa solves"
        if a is None:
            continue
        solved += 1
        assert off.kkt_verify(s, a, tol=1e-7, tables=tabs).passed, f"seed {seed}"
        assert a.stats.hg_calls == 2 * s.n_arrivals - len(a.epochs), f"seed {seed}"
        if f is not None:
            assert off.kkt_verify(s, f, tol=1e-7, tables=tabs).passed, f"seed {seed}"
            scale = max(float(a.powers.max()), 1e-12)
            assert np.max(np.abs(a.powers - f.powers)) <= 1e-6 * scale, f"seed {seed}"
    assert solved >= 2500


def test_nda_range_error_for_a_gaussian_level_past_the_doubles():
    # a level near 1e100, far past the Gaussian cap 1/(1e300 * tiny); the search once
    # divided by its x * slope, which underflows to 0
    s = scn.Scenario(n=2, k=1, ts=1e-300, gains=[[1e300, 1.0]], arrivals=((1, 1e-200),),
                     constellations=(cons.gaussian(),))
    with pytest.raises(TableRangeError, match=r"^accesses 1-2: .*stream 1 \(gaussian\), which"):
        off.nda_solve(s)


# the error of an epoch search cut at 3 evaluations
_CUT_SEARCH = r"epoch solve did not converge in 3 evaluations; its level bracket is \[\S+, \S+\]"


def test_a_convergence_error_comes_back_in_its_slot_and_is_raised_with_its_accesses(
        builtin_tables, monkeypatch):
    monkeypatch.setattr(wf, "MAX_ITER", 3)
    tabs = (builtin_tables["bpsk"],)
    gains = np.array([[1.0, 0.5]])
    quick, slow = (wf.EpochProblem(gains, tabs, budget, 1.0) for budget in (1e-3, 10.0))
    sol, err = wf.solve_epochs([quick, slow])   # 2 and 5 evaluations at MAX_ITER 200
    assert isinstance(sol, wf.EpochSolution) and sol.evals == 2
    assert isinstance(err, ConvergenceError) and re.fullmatch(_CUT_SEARCH, str(err))
    with pytest.raises(ConvergenceError) as alone:
        wf.solve_epoch(slow)
    assert str(alone.value) == str(err)
    s = scn.Scenario(n=2, k=1, ts=1.0, gains=gains, arrivals=((1, 10.0),),
                     constellations=(cons.bpsk(),))
    with pytest.raises(ConvergenceError) as raised:
        off.nda_solve(s, tables=tabs)
    assert str(raised.value) == f"accesses 1-2: {err}"
    for name in ("fsa", "online", "pbp-hgwf"):   # online's first plan: accesses 1-2
        with pytest.raises(ConvergenceError, match=rf"^accesses 1-2: {_CUT_SEARCH}$"):
            ev.run_strategy(s, name, f_w=2, tables=tabs)


def test_a_water_filling_convergence_error_comes_back_in_its_slot_with_its_accesses(
        monkeypatch):
    # at a zero tolerance these gains leave a residual of about 2e-16 after every step
    monkeypatch.setattr(wf, "ENERGY_RTOL", 0.0)
    gains = np.array([[1.1859066783865457, 0.71155184304429, 1.229170057379424]])
    budget = 1.0799425539706864
    sol, err = wf._classical_wfs([np.ones((1, 2)), gains], [2.0, budget], 1.0)
    assert isinstance(sol, wf.EpochSolution) and isinstance(err, ConvergenceError)
    with pytest.raises(ConvergenceError) as alone:
        wf.classical_wf(gains, budget)
    assert str(alone.value) == str(err)
    assert re.fullmatch(r"water-filling left a relative energy residual of \S+ at level \S+",
                        str(err))
    s = gaussian_scenario([(1, budget)], n=3, gains=gains)
    for name in ("dwf", "pbp-wf"):
        with pytest.raises(ConvergenceError) as raised:
            ev.run_strategy(s, name)
        assert str(raised.value) == f"accesses 1-3: {err}"


def test_nda_merges_a_fall_smaller_than_one_part_in_1e12(builtin_tables):
    # at gain 1e-12 the pools' levels are 1e12 + 0.25 and 1e12 + 0.2: they differ
    # by 5e-14 relative, and NDA must still merge them, as FSA does
    s = scn.Scenario(n=3, k=1, ts=1.0, gains=np.full((1, 3), 1e-12),
                     arrivals=((1, 0.5), (3, 0.2)), constellations=(cons.bpsk(),))
    tabs = (builtin_tables["bpsk"],)
    a, f = off.nda_solve(s, tables=tabs), off.fsa_solve(s, tables=tabs)
    assert [e.pools for e in a.epochs] == [e.pools for e in f.epochs] == [(1, 2)]
    assert np.max(np.abs(a.powers - f.powers)) <= 1e-6 * float(a.powers.max())
    assert off.kkt_verify(s, a, tables=tabs).passed
    assert off.kkt_verify(s, f, tables=tabs).passed


_TIE_NAMES = ("bpsk", "4pam", "16pam", "32pam")


def _tied_levels_scenario(rng):
    """Static gains in 1e-12..1e-6 (levels near 1/gain), packets U(0.01, 1) J, 2+ pools.

    Half share one gain across every entry (in 1e-12..1e-9), half draw one
    static gain per stream, so the pool levels tie to many digits.
    """
    k, n = int(rng.integers(1, 3)), int(rng.integers(2, 9))
    j = int(rng.integers(2, n + 1))
    if rng.random() < 0.5:
        gains = np.full((k, n), 10.0 ** rng.uniform(-12, -9))
    else:
        gains = np.repeat(10.0 ** rng.uniform(-12, -6, size=(k, 1)), n, axis=1)
    later = rng.choice(np.arange(2, n + 1), size=j - 1, replace=False)
    accesses = np.sort(np.concatenate(([1], later))).astype(int)
    packets = rng.uniform(0.01, 1.0, size=j)
    names = [_TIE_NAMES[i] for i in rng.integers(0, len(_TIE_NAMES), size=k)]
    return scn.Scenario(
        n=n, k=k, ts=1.0, gains=gains, arrivals=tuple(zip(accesses.tolist(), packets.tolist())),
        constellations=tuple(cons.by_name(c) for c in names),
    )


def test_nda_fsa_agree_when_pool_levels_nearly_tie():
    for seed in range(300):
        s = _tied_levels_scenario(np.random.default_rng(seed))
        tabs = off.stream_tables(s)
        a, f = off.nda_solve(s, tables=tabs), off.fsa_solve(s, tables=tabs)
        assert np.max(np.abs(a.powers - f.powers)) <= 1e-6 * float(a.powers.max()), f"seed {seed}"
        assert off.kkt_verify(s, a, tol=1e-7, tables=tabs).passed, f"seed {seed}"
        assert off.kkt_verify(s, f, tol=1e-7, tables=tabs).passed, f"seed {seed}"


def _stack_nda(scenario, tables):
    """NDA as a one-pass stack: push each pool alone, merge the top two while their level falls.

    It makes every merge in the paper's order, one solve at a time: the
    oracle that the batched rounds of ``offline._nda_loop`` must agree with.
    """
    stats = off.RunStats()
    singles = off._solve_groups(scenario, tables, [[p] for p in scenario.pools], stats)
    groups, sols = [], []
    for p, sol in zip(scenario.pools, singles):
        groups.append([p])
        sols.append(sol)
        while len(sols) > 1 and off._falls(sols[-2], sols[-1]):
            groups[-2:] = [groups[-2] + groups[-1]]
            sols[-2:] = off._solve_groups(scenario, tables, groups[-1:], stats)
    return off._assemble(scenario, groups, sols, stats)


def _nda_outcome(solve):
    try:
        a = solve()
    except TableRangeError as err:
        return type(err)
    return (a.powers.tobytes(), a.pool_water_levels.tobytes(), a.epochs, a.stats.hg_calls)


def _assert_rounds_equal_the_stack(s, tables, label):
    # powers, pool levels, epochs and calls; a raise of the same error type
    got = _nda_outcome(lambda: off._nda_loop(s, tables))
    assert got == _nda_outcome(lambda: _stack_nda(s, tables)), label


def test_nda_rounds_equal_the_stack_on_criterion_08_points(builtin_tables):
    # two energies per scenario seed, each of the 10 energies four times
    grid = np.geomspace(0.05, 50.0, 10)
    for r, seed in enumerate(range(1000, 1020)):
        base = scn.generate(n=100, k=4, ts=0.01, j=40, total_energy=1.0,
                            constellations=("bpsk", "4pam", "16pam", "32pam"),
                            gain_model="block_random", block_len=10, seed=seed)
        tabs = off.stream_tables(base)
        for energy in grid[[3 * r % 10, (3 * r + 5) % 10]]:
            s = scn.rescale_energy(base, float(energy))
            _assert_rounds_equal_the_stack(s, tabs, f"seed {seed} energy {energy}")
            _assert_rounds_equal_the_stack(s, None, f"dwf seed {seed} energy {energy}")


@pytest.mark.parametrize("scenario_of", [_tied_levels_scenario, _wide_range_scenario])
def test_nda_rounds_equal_the_stack_on_seeded_scenarios(scenario_of):
    for seed in range(300):
        s = scenario_of(np.random.default_rng(seed))
        _assert_rounds_equal_the_stack(s, off.stream_tables(s), f"seed {seed}")


def test_the_schedulers_check_no_epoch_again(builtin_tables, monkeypatch):
    # a Scenario has checked its gains, packets and ts, so no scheduler's epoch
    # goes through the per-epoch check, while the public epoch solvers keep it
    s = scn.rescale_energy(scn.generate(n=100, k=4, ts=0.01, j=40, total_energy=1.0,
                                        constellations=("bpsk", "4pam", "16pam", "32pam"),
                                        gain_model="block_random", block_len=10, seed=1003),
                           2.3207944168063883)
    tabs = off.stream_tables(s)
    names = ("nda", "fsa", "online", "pbp-hgwf", "pbp-wf", "dwf")

    def csv(name):
        return off.allocation_csv(s, ev.run_strategy(s, name, f_w=11, tables=tabs))

    want = {name: csv(name) for name in names}

    def checked(*args):
        raise AssertionError("an epoch was checked again")

    monkeypatch.setattr(wf, "_checked", checked)
    for name in names:
        assert csv(name) == want[name], name
    with pytest.raises(AssertionError, match="checked again"):
        wf.EpochProblem(np.ones((1, 1)), tabs[:1], 1.0, 1.0)
    with pytest.raises(AssertionError, match="checked again"):
        wf.classical_wf(np.ones(2), 1.0)


def test_nda_merges_disjoint_falls_in_rounds(monkeypatch):
    # levels 17, 16, ..., 2 all fall: the rounds merge 8, 4, 2 and 1 pairs,
    # so 1 + 4 solver batches where a stack makes 1 + 15; every merge is a call
    s = gaussian_scenario([(i, 17.0 - i) for i in range(1, 17)], n=16)
    batches = []
    solve = off._solve

    def counted(tables, ts, stats, epochs):
        batches.append(len(epochs))
        return solve(tables, ts, stats, epochs)

    monkeypatch.setattr(off, "_solve", counted)
    a = off.nda_solve(s)
    assert batches == [16, 8, 4, 2, 1]
    assert a.stats.hg_calls == 31 == 2 * 16 - len(a.epochs)
    assert [e.pools for e in a.epochs] == [tuple(range(1, 17))]
    batches.clear()
    assert _stack_nda(s, None).stats.hg_calls == 31 and len(batches) == 16


def test_solve_groups_mixes_a_new_lone_pool_and_a_run_in_one_batch(builtin_tables, monkeypatch):
    s = scn.Scenario(n=6, k=1, ts=1.0, gains=[[1.0, 0.5, 2.0, 1.5, 0.7, 1.2]],
                     arrivals=((1, 0.4), (3, 0.8), (5, 0.3)), constellations=(cons.bpsk(),))
    tabs = off.stream_tables(s)
    batches = []
    solve = off._solve

    def counted(tables, ts, stats, epochs):
        batches.append(len(epochs))
        return solve(tables, ts, stats, epochs)

    monkeypatch.setattr(off, "_solve", counted)
    first, second, third = s.pools
    stats = off.RunStats()
    lone, run = off._solve_groups(s, tabs, [[first], [second, third]], stats)
    assert batches == [2]
    kept = s._pool_solves[tabs]
    assert kept[1:] == [None, None] and kept[0].powers.tobytes() == lone.powers.tobytes()
    assert stats == off.RunStats(hg_calls=2, spent_evals=lone.evals + run.evals)
    again = off.RunStats()
    sol, = off._solve_groups(s, tabs, [[first]], again)
    assert batches == [2] and sol is kept[0]
    assert again == off.RunStats(hg_calls=1, spent_evals=kept[0].evals) and kept[0].evals > 0


@pytest.mark.parametrize("gains, arrivals, name", [
    ([[1e-80, 1e-80]], ((1, 0.5),), "bpsk"),
    ([[1e-80, 1e-80]], ((1, 0.5),), "32pam"),
    ([[1e-80, 1.0, 2.0]], ((1, 0.5), (2, 0.2)), "bpsk"),
], ids=["one-pool-bpsk", "one-pool-32pam", "two-pools-bpsk"])
def test_gains_whose_cap_start_underflows_solve(builtin_tables, gains, arrivals, name):
    # gain * bpsk's floor (5e-249) underflows to 0: the level cap starts at +inf
    g = np.array(gains)
    s = scn.Scenario(n=g.shape[1], k=1, ts=1.0, gains=g, arrivals=arrivals,
                     constellations=(cons.by_name(name),))
    tabs = (builtin_tables[name],)
    allocs = {alg: ev.run_strategy(s, alg, f_w=1, tables=tabs)
              for alg in ("nda", "fsa", "online", "pbp-hgwf")}
    for alg in ("nda", "fsa"):
        assert off.kkt_verify(s, allocs[alg], tables=tabs).passed, alg
    for alg in ("online", "pbp-hgwf"):
        assert onl.causal_ecc_check(s, allocs[alg])[0], alg
    a, f = allocs["nda"].powers, allocs["fsa"].powers
    assert np.max(np.abs(a - f)) <= 1e-6 * max(float(a.max()), 1e-12)


def test_fixture_from_spec_kkt_and_water_level():
    # seed-42 style shape: N=20, J=6, K=4, the four PAM sizes
    s = scn.generate(n=20, k=4, ts=0.01, j=6, total_energy=1.0,
                     constellations=("bpsk", "4pam", "16pam", "32pam"),
                     gain_model="block_random", block_len=3, seed=42)
    tabs = off.stream_tables(s)
    a = off.nda_solve(s, tables=tabs)
    f = off.fsa_solve(s, tables=tabs)
    assert np.max(np.abs(a.powers - f.powers)) <= 1e-6 * max(a.powers.max(), 1e-12)
    assert np.all(np.diff(a.pool_water_levels) >= -1e-9)


# ---------------------------------------------------------------------------
# kkt_verify failure modes
# ---------------------------------------------------------------------------

def test_kkt_detects_decreasing_levels():
    s = gaussian_scenario([(1, 1.0), (2, 3.0)], n=2)
    good = off.nda_solve(s)
    bad = off.Allocation(
        powers=good.powers[:, ::-1].copy(),
        pool_water_levels=np.array([4.0, 2.0]),
        access_water_levels=np.array([4.0, 2.0]),
        epoch_of_pool=np.array([0, 1]),
        epochs=good.epochs,
    )
    report = off.kkt_verify(s, bad)
    assert not report.monotone_levels_ok
    assert not report.passed


def test_kkt_detects_pool_overspend():
    s = gaussian_scenario([(1, 1.0), (2, 3.0)], n=2)
    powers = np.array([[4.0, 0.0]])  # pool 1 spends the entire 4 J up front
    bad = off.Allocation(
        powers=powers,
        pool_water_levels=np.array([5.0, 5.0]),
        access_water_levels=np.array([5.0, 5.0]),
        epoch_of_pool=np.array([0, 0]),
        epochs=(off.Epoch(pools=(1, 2), water_level=5.0),),
    )
    report = off.kkt_verify(s, bad)
    assert not report.ecc_ok
    assert any("pool 1" in m for m in report.messages)


def test_kkt_ecc_violation_equals_causal_check():
    s = gaussian_scenario([(1, 1.0), (3, 2.0), (4, 0.5)], n=6)
    a = off.nda_solve(s)
    a.powers *= 1.5  # every pool boundary overspends
    report = off.kkt_verify(s, a)
    ok, worst = onl.causal_ecc_check(s, a)
    assert not report.ecc_ok and not ok
    assert worst == report.ecc_max_violation > 0.0


@pytest.mark.parametrize("seed", [2, 4, 39])
def test_energy_tolerances_scale_with_a_total_below_one_joule(seed):
    # at a 1e-12 J total, a 1e-9 J floor on the slack let FSA keep one epoch that spends energy
    # before it arrives, and kkt_verify and causal_ecc_check, floored at 1 J, passed it
    base = scn.generate(n=12, k=2, ts=1.0, j=4, total_energy=1.0,
                        constellations=("bpsk", "4pam"), seed=seed)
    s = scn.rescale_energy(base, 1e-12)
    nda, fsa = off.nda_solve(s), off.fsa_solve(s)
    assert np.max(np.abs(fsa.powers - nda.powers)) <= 1e-6 * np.max(nda.powers)
    assert off.kkt_verify(s, fsa).passed and onl.causal_ecc_check(s, fsa)[0]
    one = wf.solve_epoch(wf.EpochProblem(s.gains, off.stream_tables(s), s.total_energy, s.ts))
    levels = np.full(s.n_arrivals, one.water_level)
    whole = off.Allocation(one.powers, levels, np.full(s.n, one.water_level),
                           np.ones(s.n_arrivals, dtype=np.int64), ())
    assert not off.kkt_verify(s, whole).ecc_ok and not onl.causal_ecc_check(s, whole)[0]


def _battery_reference(s, a, tol):
    """Checks (2)-(4) and the causal check as per-pool and per-arrival loops."""
    pools = off.build_pools(s.arrivals, s.n)
    scale = s.total_energy
    cum_spent = np.cumsum(s.ts * a.powers.sum(axis=0))
    msgs, batteries, max_viol, avail = [], [], 0.0, 0.0
    for pool in pools:
        avail += pool.energy
        batteries.append(avail - float(cum_spent[pool.end - 1]))
        viol = max(0.0, -batteries[-1])
        max_viol = max(max_viol, viol)
        if viol > tol * scale:
            msgs.append(f"ecc: pool {pool.index} overspends by {viol:.3e} J")
    if abs(batteries[-1]) > tol * scale:
        msgs.append(f"terminal battery not empty: {batteries[-1]:.3e} J left")
    levels = a.pool_water_levels
    for j in range(len(pools) - 1):
        if levels[j + 1] < levels[j] - tol * max(1.0, abs(levels[j])):
            msgs.append(f"water level decreases from pool {j + 1} ({levels[j]:.6g}) "
                        f"to pool {j + 2} ({levels[j + 1]:.6g})")
    for j in range(len(pools) - 1):
        rises = levels[j + 1] > levels[j] + tol * max(1.0, abs(levels[j]))
        if rises and batteries[j] > tol * scale:
            msgs.append(f"water level rises after pool {j + 1} with {batteries[j]:.3e} J banked")
    harvested = np.zeros(s.n)
    for e, E in s.arrivals:
        harvested[e - 1 :] += E
    causal = float(np.max(cum_spent - harvested, initial=0.0))
    return msgs, max_viol, abs(batteries[-1]), causal


def test_battery_checks_match_per_pool_reference():
    rng = np.random.default_rng(31)
    for _ in range(40):
        n = int(rng.integers(2, 20))
        j = int(rng.integers(1, min(6, n) + 1))
        s = scn.generate(n=n, k=2, ts=0.1, j=j, total_energy=float(rng.uniform(0.1, 5.0)),
                         constellations=("gaussian", "gaussian"), gain_model="block_random",
                         block_len=3, seed=int(rng.integers(1 << 30)))
        a = off.dwf_reference(s)
        a.powers *= rng.uniform(0.7, 1.3, size=a.powers.shape)
        a.pool_water_levels = a.pool_water_levels * rng.uniform(0.8, 1.2, size=j)
        msgs, max_viol, gap, causal = _battery_reference(s, a, 1e-7)
        report = off.kkt_verify(s, a)
        assert [m for m in report.messages if not m.startswith("stationarity")] == msgs
        assert (report.ecc_max_violation, report.terminal_gap) == (max_viol, gap)
        assert onl.causal_ecc_check(s, a)[1] == causal


def test_kkt_rejects_allocation_without_pool_levels(builtin_tables):
    s = scn.generate(n=40, k=2, ts=0.01, j=6, total_energy=1.0,
                     constellations=("bpsk", "4pam"), gain_model="block_random",
                     block_len=4, seed=5)
    a = onl.online_solve(s, 5)
    assert np.all(np.isnan(a.pool_water_levels))
    with pytest.raises(InvalidInputError, match="finite"):
        off.kkt_verify(s, a)


@pytest.mark.parametrize("power", [-1e-12, math.nan, math.inf])
def test_kkt_rejects_negative_and_nonfinite_powers(power):
    # stream 2 is idle at access 1 under the optimum; a negative power there
    # used to read as idle and pass
    s = gaussian_scenario([(1, 0.5)], n=2, gains=np.array([[1.0, 1.0], [0.01, 0.01]]), k=2)
    a = off.nda_solve(s)
    assert a.powers[1, 0] == 0.0 and off.kkt_verify(s, a).passed
    a.powers[1, 0] = power
    with pytest.raises(InvalidInputError, match="stream 2 access 1 must be finite and >= 0"):
        off.kkt_verify(s, a)


def test_kkt_detects_banked_energy_level_rise():
    s = gaussian_scenario([(1, 2.0), (2, 2.0)], n=2)
    # underspend pool 1, then raise the level anyway
    bad = off.Allocation(
        powers=np.array([[1.0, 3.0]]),
        pool_water_levels=np.array([2.0, 4.0]),
        access_water_levels=np.array([2.0, 4.0]),
        epoch_of_pool=np.array([0, 1]),
        epochs=(),
    )
    report = off.kkt_verify(s, bad)
    assert not report.empty_battery_changes_ok


def test_kkt_stationarity_messages_in_access_order():
    # stream 1 is active at both accesses, beyond the bpsk table at access 2;
    # stream 2 is silent under W*lam = 2 at both
    s = scn.Scenario(n=2, k=2, ts=1.0, gains=np.ones((2, 2)),
                     arrivals=((1, 10001.0),), constellations=(cons.bpsk(), cons.bpsk()))
    alloc = off.Allocation(
        powers=np.array([[1.0, 1e4], [0.0, 0.0]]),
        pool_water_levels=np.array([2.0]),
        access_water_levels=np.array([2.0, 2.0]),
        epoch_of_pool=np.array([0]),
        epochs=(off.Epoch(pools=(1,), water_level=2.0),),
    )
    report = off.kkt_verify(s, alloc)
    assert report.messages == [
        "stationarity: inactive stream 2 access 1 has W*lam = 2 > 1",
        "stationarity: stream 1 access 2 beyond table range",
        "stationarity: inactive stream 2 access 2 has W*lam = 2 > 1",
    ]
    assert not report.stationarity_ok and report.ecc_ok and report.terminal_ok
    assert type(report.stationarity_max_residual) is float
    assert report.stationarity_max_residual > 0.1


def test_kkt_residual_matches_per_entry_reference(builtin_tables):
    s = scn.generate(n=30, k=3, ts=0.01, j=5, total_energy=0.8,
                     constellations=("bpsk", "4pam", "32pam"), gain_model="block_random",
                     block_len=4, seed=11)
    tabs = off.stream_tables(s)
    a = off.nda_solve(s, tables=tabs)
    expected = 0.0
    for pool in off.build_pools(s.arrivals, s.n):
        w = float(a.pool_water_levels[pool.index - 1])
        for n in range(pool.start - 1, pool.end):
            for k in range(s.k):
                lam, pw = s.gains[k, n], a.powers[k, n]
                if pw > 0.0:
                    m = tabs[k].mmse_at(float(lam * pw))
                    expected = max(expected, abs(w * lam * m - 1.0))
    assert off.kkt_verify(s, a, tables=tabs).stationarity_max_residual == expected


def test_kkt_dimension_mismatch():
    s = gaussian_scenario([(1, 1.0)], n=2)
    a = off.nda_solve(s)
    with pytest.raises(InvalidInputError):
        off.kkt_verify(gaussian_scenario([(1, 1.0)], n=3), a)


# ---------------------------------------------------------------------------
# DWF reference
# ---------------------------------------------------------------------------

def test_dwf_reference_matches_nda_with_gaussian_tables():
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = int(rng.integers(3, 25))
        j = int(rng.integers(1, min(6, n) + 1))
        k = int(rng.integers(1, 4))
        s = scn.generate(n=n, k=k, ts=0.5, j=j, total_energy=float(rng.uniform(0.1, 8.0)),
                         constellations=("gaussian",) * k, gain_model="block_random",
                         block_len=3, seed=int(rng.integers(1 << 30)))
        ref = off.dwf_reference(s)
        a = off.nda_solve(s)
        assert np.max(np.abs(ref.powers - a.powers)) <= 1e-8 * max(1.0, a.powers.max())


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

def test_allocation_csv_round_trip():
    s = gaussian_scenario([(1, 3.0), (2, 1.0)], n=2)
    a = off.nda_solve(s)
    text = off.allocation_csv(s, a)
    assert text.splitlines()[0] == "n,k,lambda,sigma2,water_level,pool,epoch"
    back = off.allocation_from_csv(s, text)
    assert np.array_equal(back.powers, a.powers)
    assert np.array_equal(back.pool_water_levels, a.pool_water_levels)
    assert off.kkt_verify(s, back).passed


@pytest.mark.parametrize("alg", ["nda", "online"])
def test_allocation_csv_matches_per_entry_reference(builtin_tables, alg):
    s = scn.generate(n=16, k=3, ts=0.01, j=4, total_energy=0.6,
                     constellations=("bpsk", "16pam", "gaussian"), gain_model="block_random",
                     block_len=3, seed=13)
    a = ev.run_strategy(s, alg, f_w=3)
    assert (a.epoch_of_pool >= 0).all() if alg == "nda" else (a.epoch_of_pool == -1).all()
    rows = ["n,k,lambda,sigma2,water_level,pool,epoch\n"]
    for n in range(s.n):
        pool = int(s.pool_of_access[n])
        epoch = int(a.epoch_of_pool[pool - 1])
        for k in range(s.k):
            rows.append(f"{n + 1},{k + 1},{float(s.gains[k, n])!r},{float(a.powers[k, n])!r},"
                        f"{float(a.access_water_levels[n])!r},{pool},"
                        f"{epoch + 1 if epoch >= 0 else -1}\n")
    assert off.allocation_csv(s, a) == "".join(rows)


@pytest.mark.parametrize("call, message", [
    (lambda s, a, text: off.kkt_verify(s, dataclasses.replace(a, pool_water_levels=np.ones(3))),
     "allocation pool levels do not match the pool count"),
    (lambda s, a, text: off.allocation_from_csv(s, text.replace("sigma2", "power")),
     "allocation CSV must have columns ['epoch', 'k', 'lambda', 'n', 'pool', 'sigma2', "
     "'water_level'], got ['n', 'k', 'lambda', 'power', 'water_level', 'pool', 'epoch']"),
    (lambda s, a, text: off.allocation_from_csv(s, text.replace("\n2,1,", "\n3,1,")),
     "allocation row (3, 1) outside the scenario"),
], ids=["kkt-pool-level-count", "csv-missing-column", "csv-row-outside"])
def test_allocation_input_checks(call, message):
    s = gaussian_scenario([(1, 3.0), (2, 1.0)], n=2)
    a = off.nda_solve(s)
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        call(s, a, off.allocation_csv(s, a))


def test_allocation_from_csv_rejects_incomplete():
    s = gaussian_scenario([(1, 1.0)], n=2)
    a = off.nda_solve(s)
    text = off.allocation_csv(s, a)
    truncated = "\n".join(text.splitlines()[:-1]) + "\n"
    with pytest.raises(InvalidInputError):
        off.allocation_from_csv(s, truncated)


def test_allocation_from_csv_reports_a_repeated_row():
    s = gaussian_scenario([(1, 3.0), (2, 1.0)], n=2)
    rows = off.allocation_csv(s, off.nda_solve(s)).splitlines()
    text = "\n".join(rows + [rows[1]]) + "\n"
    with pytest.raises(InvalidInputError, match=r"row \(1, 1\) repeated"):
        off.allocation_from_csv(s, text)
