import dataclasses

import numpy as np
import pytest

from mercuryflow import constellations as cons
from mercuryflow import offline as off
from mercuryflow import online as onl
from mercuryflow import scenario as scn
from mercuryflow.errors import InvalidInputError, TableRangeError


def static_scenario(arrivals, n, k=1, ts=1.0, names=("gaussian",)):
    return scn.Scenario(
        n=n, k=k, ts=ts, gains=np.ones((k, n)), arrivals=tuple(arrivals),
        constellations=tuple(cons.by_name(x) for x in names),
    )


def test_detect_events_static_channel():
    s = static_scenario([(1, 1.0), (5, 1.0)], n=8)
    assert onl.detect_events(s) == [1, 5]


def test_detect_events_gain_change():
    gains = np.ones((1, 5))
    gains[0, 2:] = 2.0  # change at access 3
    s = scn.Scenario(n=5, k=1, ts=1.0, gains=gains, arrivals=((1, 1.0),),
                     constellations=(cons.gaussian(),))
    assert onl.detect_events(s) == [1, 3]


def test_detect_events_count_in_range():
    s = scn.generate(n=100, k=4, ts=0.01, j=40, total_energy=1.0,
                     gain_model="block_random", block_len=10, seed=3)
    events = onl.detect_events(s)
    assert s.n_arrivals <= len(events) <= s.n
    assert events[0] == 1


def test_window_validation():
    s = static_scenario([(1, 1.0)], n=2)
    with pytest.raises(InvalidInputError):
        onl.online_solve(s, 0)
    with pytest.raises(InvalidInputError):
        onl.online_solve(s, -3)


def test_a_bool_window_is_not_an_int():
    s = static_scenario([(1, 1.0)], n=2)
    with pytest.raises(InvalidInputError) as err:
        onl.online_solve(s, True)
    assert str(err.value) == "flowing window must be an integer >= 1, got True"


def test_single_pool_static_full_window_equals_offline(builtin_tables):
    s = scn.generate(n=8, k=2, ts=1.0, j=1, total_energy=4.0,
                     constellations=("bpsk", "gaussian"), gain_model="static", seed=3)
    tabs = off.stream_tables(s)
    a_on = onl.online_solve(s, 8, tables=tabs)
    a_off = off.nda_solve(s, tables=tabs)
    assert np.allclose(a_on.powers, a_off.powers, rtol=0, atol=1e-12)


def test_hand_trace_window_one():
    # arrivals (1, 1 J) and (3, 1 J), N=4, unit gains: each event spends its
    # battery on a single access; accesses 2 and 4 stay silent
    s = static_scenario([(1, 1.0), (3, 1.0)], n=4)
    a = onl.online_solve(s, 1)
    assert a.powers.ravel() == pytest.approx([1.0, 0.0, 1.0, 0.0], abs=1e-12)
    assert a.stats.hg_calls == 2


def test_silence_beyond_window():
    # one packet, window 2, no further events: accesses 3..5 silent
    s = static_scenario([(1, 2.0)], n=5)
    a = onl.online_solve(s, 2)
    assert a.powers[0, :2] == pytest.approx([1.0, 1.0], rel=1e-9)
    assert np.all(a.powers[0, 2:] == 0.0)


def test_causality_on_random_ensemble(builtin_tables):
    rng = np.random.default_rng(17)
    names = ("bpsk", "4pam", "16pam", "32pam")
    for _ in range(25):
        n = int(rng.integers(5, 60))
        j = int(rng.integers(1, min(10, n) + 1))
        k = int(rng.integers(1, 4))
        s = scn.generate(n=n, k=k, ts=0.01, j=j, total_energy=float(rng.uniform(0.05, 3.0)),
                         constellations=names[:k], gain_model="block_random", block_len=5,
                         seed=int(rng.integers(1 << 30)))
        f_w = int(rng.integers(1, n + 1))
        a = onl.online_solve(s, f_w, tables=off.stream_tables(s))
        ok, viol = onl.causal_ecc_check(s, a)
        assert ok, viol


def test_no_lookahead_future_perturbation():
    s = scn.generate(n=60, k=2, ts=0.01, j=10, total_energy=1.0,
                     constellations=("bpsk", "4pam"), gain_model="block_random",
                     block_len=6, seed=5)
    tabs = off.stream_tables(s)
    a = onl.online_solve(s, 7, tables=tabs)
    cut = 30
    gains = s.gains.copy()
    gains[:, cut:] *= 3.1
    arrivals = tuple(
        (e, E * (1.0 if e <= cut else 0.25)) for e, E in s.arrivals
    )
    s_pert = dataclasses.replace(s, gains=gains, arrivals=arrivals)
    a_pert = onl.online_solve(s_pert, 7, tables=tabs)
    assert np.array_equal(a.powers[:, :cut], a_pert.powers[:, :cut])


def test_online_allocation_has_no_pool_levels():
    s = static_scenario([(1, 1.0), (3, 1.0)], n=4)
    a = onl.online_solve(s, 2)
    assert np.all(np.isnan(a.pool_water_levels))
    assert np.all(a.epoch_of_pool == -1)
    assert a.epochs == ()


def test_online_range_error_names_the_access(builtin_tables):
    # one bpsk stream and a packet that drives it past its table top
    s = static_scenario([(1, 10.0 * builtin_tables["bpsk"].snr_top)], n=3, names=("bpsk",))
    with pytest.raises(TableRangeError) as err:
        onl.online_solve(s, 2, tables=(builtin_tables["bpsk"],))
    assert str(err.value).startswith("accesses 1-2: ")
    assert "stream 1 (bpsk)" in str(err.value)
