"""A scenario's single-pool solves: made once per tables tuple, shared, and invisible in outputs.

NDA's and dwf's first rounds, the pool-by-pool baselines and FSA's one-pool
candidates take each pool's solve alone from ``offline._solve_groups``, which
keeps it with the scenario.  A run must not show what ran before it on the
same scenario: the same CSV bytes, counts, epochs and errors as on a fresh one.
"""

import copy
import dataclasses
import gc
import math
import pickle
import traceback
import weakref

import numpy as np
import pytest

from mercuryflow import constellations as cons
from mercuryflow import evaluation as ev
from mercuryflow import offline as off
from mercuryflow import scenario as scn
from mercuryflow import tables as tbl
from mercuryflow import waterfill as wf
from mercuryflow.errors import ConvergenceError, MercuryflowError, TableRangeError

FINITE = ("bpsk", "4pam", "16pam", "32pam")
NAMES = ("nda", "fsa", "pbp-hgwf", "pbp-wf", "dwf", "online")


def _sweep_point(seed):
    """One of criterion 08's scenarios at one of its energies."""
    base = scn.generate(n=100, k=4, ts=0.01, j=40, total_energy=1.0, constellations=FINITE,
                        gain_model="block_random", block_len=10, seed=1000 + seed)
    return scn.rescale_energy(base, float(np.geomspace(0.05, 50.0, 10)[3 * seed % 10]))


def _ensemble(seed):
    """A small scenario of the benchmark ensemble's shape."""
    rng = np.random.default_rng([7, seed])
    n = int(rng.integers(4, 61))
    k = int(rng.integers(1, 5))
    return scn.generate(n=n, k=k, ts=0.01, j=int(rng.integers(1, min(10, n) + 1)),
                        total_energy=math.exp(rng.uniform(math.log(0.02), math.log(5.0))),
                        constellations=FINITE[:k], gain_model="block_random",
                        block_len=int(rng.integers(1, 9)), seed=int(rng.integers(1 << 30)))


def _wide_with_gaussian(seed):
    """Log-uniform gains in [1e-2, 1e2] and a Gaussian stream among finite ones."""
    rng = np.random.default_rng([8, seed])
    s = _ensemble(seed)
    names = ["gaussian"] + [FINITE[i] for i in rng.integers(0, 4, size=2)]
    return scn.Scenario(n=s.n, k=3, ts=s.ts, arrivals=s.arrivals,
                        gains=np.exp(rng.uniform(math.log(1e-2), math.log(1e2), size=(3, s.n))),
                        constellations=tuple(cons.by_name(c) for c in names))


def _range_slot(seed):
    """A one-access first pool whose packet is twice what bpsk can spend there."""
    rng = np.random.default_rng([9, seed])
    n = int(rng.integers(6, 16))
    gains = rng.uniform(0.5, 2.0, size=(1, n))
    later = np.sort(rng.choice(np.arange(3, n + 1), size=int(rng.integers(0, 3)), replace=False))
    top = tbl.table_for(cons.bpsk()).snr_top
    packets = [2.0 * top / gains[0, 0]] + rng.uniform(0.1, 1.0, size=later.size + 1).tolist()
    return scn.Scenario(n=n, k=1, ts=1.0, gains=gains,
                        arrivals=tuple(zip([1, 2, *later.tolist()], packets)),
                        constellations=(cons.bpsk(),))


def _outcome(s, name, tables=None):
    """What a run shows: its CSV bytes, stats and epochs, or its error's type and text."""
    try:
        a = ev.run_strategy(s, name, f_w=3, tables=tables)
    except MercuryflowError as err:
        return type(err), str(err)
    return off.allocation_csv(s, a), a.stats, a.epochs


@pytest.mark.parametrize("make", [_sweep_point, _ensemble, _wide_with_gaussian, _range_slot])
def test_a_run_shows_nothing_of_the_runs_before_it(builtin_tables, make):
    range_slots = 0
    for seed in range(4):
        want = {name: _outcome(make(seed), name) for name in NAMES}
        s = make(seed)
        for name in NAMES + NAMES[::-1]:   # forward, then back
            assert _outcome(s, name) == want[name], (seed, name)
        assert set(s._pool_solves) == {off.stream_tables(s), None}
        range_slots += any(isinstance(sol, TableRangeError)
                           for slots in s._pool_solves.values() for sol in slots)
        for name in NAMES:
            s = make(seed)
            assert _outcome(s, name) == want[name], (seed, name)
            assert _outcome(s, name) == want[name], (seed, name, "again")
    if make is _range_slot:
        assert range_slots == 4


def test_copies_start_with_no_kept_solves(builtin_tables):
    s = _sweep_point(2)
    off.nda_solve(s)
    assert s._pool_solves
    for other in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s)),
                  dataclasses.replace(s), scn.rescale_energy(s, 1.0)):
        assert other._pool_solves == {}


def _snr_60():
    """Pool 1 needs snr 60 on its two accesses: the default bpsk table models it."""
    return scn.Scenario(n=4, k=1, ts=1.0, gains=np.ones((1, 4)), arrivals=((1, 120.0), (3, 1.0)),
                        constellations=(cons.bpsk(),))


def test_tables_tuples_share_no_slot(builtin_tables):
    s = _snr_60()
    low = (tbl.table_for(cons.bpsk(), snr_max=30.0, n_points=256),)   # which does not
    want = {tabs: _outcome(_snr_60(), "pbp-hgwf", tabs) for tabs in (None, low)}
    assert want[low][0] is TableRangeError and want[None][1].hg_calls == 2
    for tabs in (None, low, None, low):
        assert _outcome(s, "pbp-hgwf", tabs) == want[tabs]
    assert set(s._pool_solves) == {off.stream_tables(s), low}
    default, custom = s._pool_solves.values()
    assert not {id(sol) for sol in default} & {id(sol) for sol in custom}


def test_a_convergence_error_is_raised_every_time_and_never_kept(builtin_tables, monkeypatch):
    # at 3 evaluations pool 1 (2 evaluations) solves and pool 2 (5) does not
    s = scn.Scenario(n=4, k=1, ts=1.0, gains=[[1.0, 0.5, 1.0, 0.5]],
                     arrivals=((1, 1e-3), (3, 10.0)), constellations=(cons.bpsk(),))
    tabs = off.stream_tables(s)
    want = _outcome(copy.copy(s), "nda")
    monkeypatch.setattr(wf, "MAX_ITER", 3)
    for name in ("nda", "pbp-hgwf", "nda"):
        with pytest.raises(ConvergenceError, match=r"^accesses 3-4: epoch solve did not"):
            ev.run_strategy(s, name, tables=tabs)
        assert s._pool_solves[tabs] == [None, None]
    monkeypatch.undo()
    assert _outcome(s, "nda") == want


def test_a_kept_range_error_is_raised_as_a_fresh_instance(builtin_tables):
    s = _range_slot(0)
    errors = []
    for _ in range(3):
        with pytest.raises(TableRangeError) as info:
            ev.pbp_solve(s, "tables")
        errors.append(info.value)
    kept, = (sol for sol in s._pool_solves[off.stream_tables(s)]
             if isinstance(sol, TableRangeError))
    assert kept.__traceback__ is None
    assert len({id(err) for err in errors + [kept]}) == 4
    assert len({str(err) for err in errors + [kept]}) == 1
    depths = {len(traceback.extract_tb(err.__traceback__)) for err in errors}
    assert len(depths) == 1


def test_kept_solves_go_with_their_scenario(builtin_tables):
    s = _sweep_point(1)
    off.nda_solve(s)
    sol = s._pool_solves[off.stream_tables(s)][0]
    assert not sol.powers.flags.writeable and sol.powers.base is None
    ref = weakref.ref(sol.powers)
    del s, sol
    gc.collect()
    assert ref() is None
