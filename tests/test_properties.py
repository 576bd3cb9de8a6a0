"""Property layer over drawn scenarios: CSV round trips, tamper detection, NDA == FSA.

It also checks that a batch of epoch solves gives each epoch what it gets
alone, and the bytes of ``power_at_level`` at every level that spends its budget.

Only built-in constellations are drawn, so every table comes from the
session's table cache.  The draws are derandomized: a run is reproducible.
"""

import math
import re
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mercuryflow import constellations as cons
from mercuryflow import offline as off
from mercuryflow import scenario as scn
from mercuryflow import tables as tb
from mercuryflow import waterfill as wf
from mercuryflow._textout import emit
from mercuryflow.errors import ConvergenceError, InvalidInputError, TableRangeError
from mercuryflow.tables import table_for

from conftest import FINITE_BUILTINS

KKT_TOL = 1e-7
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=50)
SOLVERS = {"nda": off.nda_solve, "fsa": off.fsa_solve}


@st.composite
def scenarios(draw, log_gain=1.0, energy=st.floats(1e-3, 1.0), ts=st.just(1.0)):
    """Scenarios with log-uniform gains in 10**(+-log_gain) and drawn packets.

    The defaults keep every snr below 100, inside every built-in table.
    """
    n, k = draw(st.integers(1, 8)), draw(st.integers(1, 3))
    later = draw(st.lists(st.integers(2, n), unique=True, max_size=n - 1)) if n > 1 else []
    accesses = [1, *sorted(later)]
    packets = draw(st.lists(energy, min_size=len(accesses), max_size=len(accesses)))
    exps = draw(st.lists(st.floats(-log_gain, log_gain), min_size=k * n, max_size=k * n))
    names = draw(st.lists(st.sampled_from((*FINITE_BUILTINS, "gaussian")), min_size=k, max_size=k))
    return scn.Scenario(
        n=n, k=k, ts=draw(ts), gains=10.0 ** np.array(exps).reshape(k, n),
        arrivals=tuple(zip(accesses, packets)), constellations=tuple(map(cons.by_name, names)),
    )


@PROPERTY
@given(s=scenarios(), alg=st.sampled_from(sorted(SOLVERS)))
def test_exported_allocation_reads_back_exactly(s, alg):
    a = SOLVERS[alg](s)
    text = off.allocation_csv(s, a)
    b = off.allocation_from_csv(s, text)
    assert np.array_equal(a.powers, b.powers)
    assert np.array_equal(a.pool_water_levels, b.pool_water_levels)
    assert np.array_equal(a.access_water_levels, b.access_water_levels)
    assert np.array_equal(a.epoch_of_pool, b.epoch_of_pool)
    assert a.epochs == b.epochs
    assert off.allocation_csv(s, b) == text


@PROPERTY
@given(s=scenarios(), alg=st.sampled_from(sorted(SOLVERS)), data=st.data(),
       column=st.sampled_from(["lambda", "sigma2", "water_level"]),
       step=st.floats(1e-3, 1.0), sign=st.sampled_from([-1.0, 1.0]))
def test_tampered_export_fails_to_load_or_verify(s, alg, data, column, step, sign):
    # every packet is positive, so each epoch spends on an active stream
    lines = off.allocation_csv(s, SOLVERS[alg](s)).splitlines()
    row = data.draw(st.integers(1, len(lines) - 1), label="row")
    col = lines[0].split(",").index(column)
    parts = lines[row].split(",")
    value = float(parts[col])
    parts[col] = repr(value + sign * step * max(1.0, abs(value)))
    lines[row] = ",".join(parts)
    try:
        report = off.kkt_verify(s, off.allocation_from_csv(s, "\n".join(lines) + "\n"), tol=KKT_TOL)
    except InvalidInputError:
        return
    assert not report.passed


def _solve_or_range_error(solve, s):
    try:
        return solve(s)
    except TableRangeError as err:
        assert re.match(r"accesses \d+-\d+: ", str(err)), str(err)
        return None


@PROPERTY
@given(s=scenarios(log_gain=6.0, energy=st.floats(0.0, 1e3), ts=st.floats(1e-3, 1.0)))
def test_nda_equals_fsa_and_passes_kkt(s):
    a = _solve_or_range_error(off.nda_solve, s)
    f = _solve_or_range_error(off.fsa_solve, s)
    assert (a is None) == (f is None)
    if a is None:
        return
    scale = max(float(a.powers.max()), 1e-12)
    assert np.max(np.abs(a.powers - f.powers)) <= 1e-6 * scale
    assert off.kkt_verify(s, a, tol=KKT_TOL).passed
    assert off.kkt_verify(s, f, tol=KKT_TOL).passed


@st.composite
def epoch_batches(draw):
    """1-12 epochs over one drawn tables tuple (K 1-4, finite and Gaussian mixed).

    Each epoch has 1-12 accesses, gains in 10**(+-1), and a budget that is
    zero, ordinary, or past the level cap of every all-finite tuple.
    """
    names = draw(st.lists(st.sampled_from((*FINITE_BUILTINS, "gaussian")), min_size=1, max_size=4))
    tables = tuple(table_for(cons.by_name(n)) for n in names)
    budgets = st.one_of(st.floats(1e-3, 10.0), st.floats(1e7, 1e9), st.just(0.0))
    problems = []
    for _ in range(draw(st.integers(1, 12))):
        n = draw(st.integers(1, 12))
        exps = draw(st.lists(st.floats(-1.0, 1.0), min_size=len(names) * n,
                             max_size=len(names) * n))
        gains = 10.0 ** np.array(exps).reshape(len(names), n)
        problems.append(wf.EpochProblem(gains, tables, draw(budgets), draw(st.floats(1e-3, 1.0))))
    return problems


def _outcome(solve, arg):
    try:
        return solve(arg)
    except (TableRangeError, ConvergenceError) as err:
        return err


@PROPERTY
@given(problems=epoch_batches(), max_iter=st.sampled_from((wf.MAX_ITER, 3)))
def test_a_batch_of_epochs_solves_each_as_alone(problems, max_iter):
    # every slot is its epoch's outcome alone, errors included: the batch raises none;
    # searches cut at 3 evaluations put ConvergenceErrors beside solved epochs
    with mock.patch.object(wf, "MAX_ITER", max_iter):
        batch = wf.solve_epochs(problems)
        alone = [_outcome(wf.solve_epoch, p) for p in problems]
    assert len(batch) == len(alone)
    for b, a in zip(batch, alone):
        assert type(b) is type(a)
        if isinstance(a, (TableRangeError, ConvergenceError)):
            assert str(b) == str(a)
            continue
        assert b.water_level == a.water_level
        assert b.powers.shape == a.powers.shape
        assert b.powers.tobytes() == a.powers.tobytes()
        assert b.spent_energy == a.spent_energy
        assert b.evals == a.evals


@PROPERTY
@given(problems=epoch_batches())
def test_a_settled_level_gives_power_at_level_bytes(problems):
    # the search inverts through the K-table bank, power_at_level through a
    # one-table bank with other key offsets; a level whose per-stream powers
    # spend the budget must get the same cells, so the same bytes (a
    # tangent-step finish does not spend it at its level and is left out)
    for p, sol in zip(problems, wf.solve_epochs(problems)):
        if not isinstance(sol, wf.EpochSolution):
            continue
        each = np.array([wf.power_at_level(t, g, sol.water_level)
                         for t, g in zip(p.tables, p.gains)])
        if abs(p.ts * float(each.sum()) - p.budget) <= 0.5 * wf.ENERGY_RTOL * p.budget:
            assert sol.powers.tobytes() == each.tobytes()


def _level_cap(problem):
    """The per-epoch level cap and its stream, as a search set itself up one epoch at a time."""
    floor, lam_max = tb._bank(problem.tables)[3], problem.gains.max(axis=1)
    with np.errstate(divide="ignore", over="ignore"):
        level = 1.0 / (lam_max * floor)
        while (low := 1.0 / (level * lam_max) < floor).any():
            level = np.where(low, np.nextafter(level, 0.0), level)
    k = int(np.argmin(level))
    return (float(level[k]), k) if level[k] < math.inf else (math.inf, -1)


def _wf_level(g, target):
    """The per-epoch Gaussian start: sort the floors 1/g and scan their prefix sums."""
    floors = np.sort(1.0 / g.ravel())
    csum = np.cumsum(floors)
    levels = (target + csum) / np.arange(1, floors.size + 1)
    return float(levels[np.nonzero(levels > floors)[0].max(initial=0)])


def _bits(values):
    return np.array(values, dtype=float).tobytes()


@PROPERTY
@given(problems=epoch_batches(), tied=st.booleans(), tiny=st.booleans())
def test_batched_setup_equals_the_per_epoch_cap_and_start(problems, tied, tiny):
    # tied gains and sub-ulp budgets, whose levels can round above their floors out of order
    problems = [wf.EpochProblem(np.full_like(p.gains, p.gains[0, 0]) if tied else p.gains,
                                p.tables, p.budget * 1e-20 if tiny else p.budget, p.ts)
                for p in problems]
    lam = np.concatenate([p.gains.ravel() for p in problems])
    row = np.repeat([p.gains.shape[1] for p in problems], len(problems[0].tables))
    searches = wf._searches(problems, lam, [p.gains.size for p in problems], row,
                            tb._bank(problems[0].tables))
    each = [_level_cap(p) for p in problems]
    assert _bits([s.cap for s in searches]) == _bits([c for c, _ in each])
    assert [s.k_cap for s in searches] == [k for _, k in each]
    assert _bits([s.lo for s in searches]) == _bits([1.0 / float(p.gains.max()) for p in problems])
    assert _bits([s.x for s in searches]) == _bits([min(_wf_level(p.gains, p.budget / p.ts), c)
                                                    for p, (c, _) in zip(problems, each)])


@PROPERTY
@given(problems=epoch_batches(), ts=st.floats(1e-3, 1.0),
       tiny=st.lists(st.booleans(), min_size=12, max_size=12), tied=st.booleans())
def test_a_gaussian_batch_solves_each_as_classical_wf_alone(problems, ts, tiny, tied):
    # the drawn budgets, some cut below one ulp of the floors (the tangent finish);
    # tied gains, whose mean floor can round above the largest
    gains = [np.full_like(p.gains, p.gains[0, 0]) if tied else p.gains for p in problems]
    budgets = [p.budget * 1e-20 if t else p.budget for p, t in zip(problems, tiny)]
    # every slot is its epoch's outcome alone, errors included: the batch raises none
    batch = list(wf._classical_wfs(gains, budgets, ts))
    alone = [_outcome(lambda g: wf.classical_wf(g, b, ts), g) for g, b in zip(gains, budgets)]
    for b, a, g, budget in zip(batch, alone, gains, budgets, strict=True):
        assert type(b) is type(a)
        if isinstance(a, ConvergenceError):
            assert str(b) == str(a)
            continue
        assert b.water_level == a.water_level and b.spent_energy == a.spent_energy
        assert b.powers.shape == a.powers.shape and b.powers.tobytes() == a.powers.tobytes()
        if budget == 0.0:   # level 0, and every power +0.0
            assert a.water_level == 0.0 and a.powers.tobytes() == bytes(a.powers.nbytes)
        else:   # the level of the per-epoch sorted-floor scan
            assert _bits(a.water_level) == _bits(_wf_level(g, budget / ts))


# signed zeros, infinities, nans of three bit patterns, subnormals and their neighbours
_EDGE_DOUBLES = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324,
                          2.2250738585072014e-308, 2.225073858507201e-308, 1.0, 0.1])
_EDGE_DOUBLES = np.append(_EDGE_DOUBLES, (np.array([math.nan]).view(np.uint64) | 1).view(float))


@PROPERTY
@given(pool=st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                     max_size=8),
       data=st.data(), n=st.integers(0, 40))
def test_emit_prints_each_entry_as_its_str(pool, data, n):
    # a few distinct values repeated, as gains over fading blocks and levels over pools
    values = np.concatenate([np.array(pool, dtype=float), _EDGE_DOUBLES])
    pick = data.draw(st.lists(st.integers(0, values.size - 1), min_size=n, max_size=n))
    doubles = values[pick]
    ints = np.array(data.draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=n, max_size=n)),
                    dtype=np.int64)
    columns = (doubles, doubles[::-1], ints % 5, ints, np.arange(n) % 3 == 0,
               np.array(["x", "y"] * n)[:n])
    rows = zip(*(c.tolist() for c in columns))
    assert emit("abcdef", columns) == "a,b,c,d,e,f\n" + "".join(
        ",".join(map(str, row)) + "\n" for row in rows)
