import copy
import dataclasses
import json
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mercuryflow import constellations as cons
from mercuryflow import errors
from mercuryflow import evaluation as ev
from mercuryflow import offline as off
from mercuryflow import online as on
from mercuryflow import scenario as scn
from mercuryflow import tables as tbl
from mercuryflow import waterfill as wf
from mercuryflow.errors import InvalidInputError, SchemaError


def test_generate_single_packet_normalization():
    s = scn.generate(n=5, k=1, ts=1.0, j=1, total_energy=5.0,
                     constellations=("gaussian",), seed=0)
    assert s.arrivals == ((1, 5.0),)


def test_ndtri_port_is_scipys_bit_for_bit():
    from scipy.special import ndtri

    u = np.random.Generator(np.random.Philox(2024)).random(100_000)
    # the P2/Q2 tail (below exp(-32)), which uniform draws seldom reach, and the upper tail
    lower = np.concatenate([u[:2000] * math.exp(-32), u[2000:4000] * 1e-300])
    upper = 1.0 - np.concatenate([lower[:2000], u[4000:6000] * math.exp(-2)])
    edges = [0.0, 5e-324, math.exp(-32), math.exp(-2), 1.0 - math.exp(-2), 0.5]
    near = [v for e in edges for v in (np.nextafter(e, -1.0), np.nextafter(e, 2.0)) if v >= 0.0]
    u = np.concatenate([u, lower, upper[upper < 1.0], edges, near])
    got = np.array([scn._ndtri(x) for x in u.tolist()])
    assert got.tobytes() == ndtri(u).tobytes()


def test_generate_deterministic():
    a = scn.generate(n=30, k=2, ts=0.01, j=6, total_energy=2.0,
                     constellations=("bpsk", "4pam"), seed=123)
    b = scn.generate(n=30, k=2, ts=0.01, j=6, total_energy=2.0,
                     constellations=("bpsk", "4pam"), seed=123)
    assert a == b
    assert scn.dumps(a) == scn.dumps(b)


def test_generate_arrival_structure():
    s = scn.generate(n=100, k=4, ts=0.01, j=40, total_energy=1.0, seed=1)
    accesses = [e for e, _ in s.arrivals]
    assert len(accesses) == 40
    assert accesses[0] == 1
    assert all(b > a for a, b in zip(accesses, accesses[1:]))
    assert accesses[-1] <= 100


def test_generate_energy_normalization():
    s = scn.generate(n=50, k=1, ts=1.0, j=7, total_energy=3.25,
                     constellations=("gaussian",), seed=9)
    assert abs(s.total_energy - 3.25) <= 1e-12 * 3.25


def test_generate_static_gains_constant():
    s = scn.generate(n=12, k=3, ts=1.0, j=2, total_energy=1.0,
                     constellations=("gaussian",) * 3, gain_model="static", seed=2)
    assert np.all(s.gains == s.gains[:, :1])


@pytest.mark.parametrize("shared", [False, True])
def test_generate_static_gains_are_one_block(shared):
    kw = dict(n=9, k=3, ts=1.0, j=2, total_energy=1.0, constellations=("gaussian",) * 3,
              constant_across_streams=shared, seed=6)
    static = scn.generate(gain_model="static", block_len=2, **kw)
    block = scn.generate(gain_model="block_random", block_len=9, **kw)
    assert np.array_equal(static.gains, block.gains)
    # a static model ignores block_len, even one that no block model takes
    assert np.array_equal(scn.generate(gain_model="static", block_len=0, **kw).gains, static.gains)


def test_generate_block_gains_change_at_block_boundaries():
    s = scn.generate(n=10, k=1, ts=1.0, j=1, total_energy=1.0,
                     constellations=("gaussian",), gain_model="block_random",
                     block_len=5, seed=2)
    g = s.gains[0]
    assert np.all(g[:5] == g[0]) and np.all(g[5:] == g[5]) and g[0] != g[5]


def test_generate_constant_across_streams():
    s = scn.generate(n=8, k=4, ts=1.0, j=2, total_energy=1.0,
                     constellations=("bpsk", "4pam", "16pam", "32pam"),
                     gain_model="block_random", block_len=2,
                     constant_across_streams=True, seed=4)
    assert np.all(s.gains == s.gains[:1, :])


def test_generate_rejects_bad_params():
    with pytest.raises(InvalidInputError):
        scn.generate(n=5, k=1, ts=1.0, j=6, total_energy=1.0, constellations=("gaussian",))
    with pytest.raises(InvalidInputError):
        scn.generate(n=5, k=1, ts=1.0, j=1, total_energy=-1.0, constellations=("gaussian",))
    with pytest.raises(InvalidInputError):
        scn.generate(n=5, k=2, ts=1.0, j=1, total_energy=1.0, constellations=("gaussian",))


def test_rescale_energy():
    s = scn.generate(n=20, k=1, ts=1.0, j=4, total_energy=2.0,
                     constellations=("gaussian",), seed=3)
    r = scn.rescale_energy(s, 6.0)
    assert abs(r.total_energy - 6.0) <= 1e-12 * 6.0
    assert [e for e, _ in r.arrivals] == [e for e, _ in s.arrivals]
    ratios = [E2 / E1 for (_, E1), (_, E2) in zip(s.arrivals, r.arrivals)]
    assert all(abs(x - 3.0) < 1e-12 for x in ratios)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def test_save_load_round_trip(tmp_path):
    s = scn.generate(n=15, k=2, ts=0.01, j=3, total_energy=1.5,
                     constellations=("bpsk", "16pam"), seed=9)
    path = tmp_path / "scenario.json"
    scn.save(s, path)
    assert scn.load(path) == s


def test_round_trip_with_custom_constellation(tmp_path):
    pts = np.array([-1.5, -0.5, 0.5, 1.5]) / math.sqrt(1.25)
    custom = cons.Constellation("discrete", pts, np.full(4, 0.25), label="custom4")
    s = scn.Scenario(n=3, k=1, ts=1.0, gains=np.ones((1, 3)) * 0.7,
                     arrivals=((1, 1.0),), constellations=(custom,))
    path = tmp_path / "s.json"
    scn.save(s, path)
    assert scn.load(path) == s


@pytest.mark.parametrize("custom", [
    # a non-uniform input under a built-in's name
    cons.Constellation("discrete", np.array([-3.0, -1.0, 1.0, 3.0]) / math.sqrt(2.6),
                       np.array([0.1, 0.4, 0.4, 0.1]), label="4pam"),
    # uniform 4pam points under a name no built-in has
    cons.Constellation("discrete", cons.pam(4).points, cons.pam(4).probs, label="mypam"),
    cons.Constellation("gaussian", label="awgn"),
])
def test_round_trip_keeps_custom_inputs(custom):
    s = scn.Scenario(n=3, k=2, ts=1.0, gains=np.ones((2, 3)),
                     arrivals=((1, 1.0),), constellations=(custom, cons.bpsk()))
    doc = json.loads(scn.dumps(s))
    back = scn.loads(scn.dumps(s))
    assert back == s
    assert doc["constellations"][1] == "bpsk"
    if custom.is_gaussian:
        assert doc["constellations"][0] == "gaussian"
        assert back.constellations[0].is_gaussian
    else:
        assert np.array_equal(back.constellations[0].points, custom.points)
        assert np.array_equal(back.constellations[0].probs, custom.probs)
        assert back.constellations[0].label == custom.label


def test_infinite_symbol_duration_rejected():
    doc = json.loads(scn.dumps(
        scn.generate(n=4, k=1, ts=1.0, j=1, total_energy=1.0,
                     constellations=("gaussian",), seed=0)))
    doc["ts_seconds"] = math.inf
    with pytest.raises(SchemaError, match="finite"):
        scn.loads(json.dumps(doc))


def test_missing_field_names_it():
    doc = json.loads(scn.dumps(
        scn.generate(n=4, k=1, ts=1.0, j=1, total_energy=1.0,
                     constellations=("gaussian",), seed=0)))
    del doc["ts_seconds"]
    with pytest.raises(SchemaError) as err:
        scn.loads(json.dumps(doc))
    assert err.value.field == "ts_seconds"


def test_negative_gain_rejected():
    doc = json.loads(scn.dumps(
        scn.generate(n=2, k=1, ts=1.0, j=1, total_energy=1.0,
                     constellations=("gaussian",), seed=0)))
    for bad in (-1.0, 1e-310, 5e-324):   # subnormal gains too: 1/gain must stay finite
        doc["gains"][0][0] = bad
        with pytest.raises(SchemaError, match="gains"):
            scn.loads(json.dumps(doc))


def test_gains_generator_spec():
    doc = {
        "n": 10, "k": 2, "ts_seconds": 1.0,
        "arrivals": [{"access": 1, "joules": 1.0}, {"access": 6, "joules": 0.5}],
        "gains": {"model": "block_random", "block_len": 5},
        "constellations": ["bpsk", "4pam"],
        "seed": 77,
    }
    s = scn.loads(json.dumps(doc))
    assert s.gains.shape == (2, 10)
    # same seed, same spec -> same gains
    assert scn.loads(json.dumps(doc)) == s


def test_gains_generator_spec_requires_seed():
    doc = {
        "n": 4, "k": 1, "ts_seconds": 1.0,
        "arrivals": [{"access": 1, "joules": 1.0}],
        "gains": {"model": "static"},
        "constellations": ["gaussian"],
    }
    with pytest.raises(SchemaError, match="seed"):
        scn.loads(json.dumps(doc))


def test_arrival_validation_through_scenario():
    with pytest.raises(InvalidInputError):
        scn.Scenario(n=4, k=1, ts=1.0, gains=np.ones((1, 4)),
                     arrivals=((2, 1.0),), constellations=(cons.gaussian(),))


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_generation_structure_property(j, seed):
    n = 2 * j + 3
    s = scn.generate(n=n, k=1, ts=1.0, j=j, total_energy=1.0,
                     constellations=("gaussian",), seed=seed)
    accesses = [e for e, _ in s.arrivals]
    assert accesses[0] == 1 and len(accesses) == j
    assert all(1 <= e <= n for e in accesses)
    assert all(b > a for a, b in zip(accesses, accesses[1:]))
    assert abs(s.total_energy - 1.0) < 1e-12
    assert np.all(s.gains > 0.0)


# ---------------------------------------------------------------------------
# input checks: one typed error per rule
# ---------------------------------------------------------------------------

_DOC = {"n": 2, "k": 1, "ts_seconds": 1.0, "arrivals": [{"access": 1, "joules": 1.0}],
        "gains": [[1.0, 1.0]], "constellations": ["gaussian"]}


def _loads(**changes):
    return lambda: scn.loads(json.dumps({**_DOC, **changes}))


def _scenario(**changes):
    args = dict(n=2, k=1, ts=1.0, gains=np.ones((1, 2)), arrivals=((1, 1.0),),
                constellations=(cons.gaussian(),))
    return lambda: scn.Scenario(**{**args, **changes})


def _generate(**changes):
    args = dict(n=4, k=1, ts=1.0, j=1, total_energy=1.0, constellations=("gaussian",))
    return lambda: scn.generate(**{**args, **changes})


_ZERO = _scenario(arrivals=((1, 0.0),))()


@pytest.mark.parametrize("call, error, field, match", [
    (lambda: scn.loads("{not json"), SchemaError, None, "not valid JSON"),
    (lambda: scn.loads("[1, 2]"), SchemaError, None, "top level must be a JSON object"),
    (_loads(arrivals=[5]), SchemaError, "arrivals[0]", "must be an object"),
    (_loads(constellations=["8qam"]), SchemaError, "constellations[0]", "unknown constellation"),
    (_loads(constellations=[{"probs": [0.5, 0.5]}]), SchemaError, "constellations[0].points",
     "missing"),
    (_loads(constellations=[{"points": [-1.0, 1.0]}]), SchemaError, "constellations[0].probs",
     "missing"),
    (_loads(constellations=[{"points": [-1.0, 1.0], "probs": [0.5, 0.25]}]), SchemaError,
     "constellations[0]", "probabilities sum to"),
    (_loads(constellations=[5]), SchemaError, "constellations[0]", "name or points/probs"),
    (_loads(gains=[["a", 1.0]]), SchemaError, "gains", "number array"),
    (_loads(gains=[[True, 1.0]]), SchemaError, "gains", "number array"),
    (_loads(gains=[["1.5", "2"]]), SchemaError, "gains", "number array"),
    (_loads(gains=[[10**400, 1.0]]), SchemaError, "gains", "number array"),
    (_scenario(n=0, gains=np.ones((1, 0))), InvalidInputError, None, "n must be >= 1, got 0"),
    (_scenario(gains=np.ones((1, 3))), InvalidInputError, None, "gains shape"),
    (_scenario(constellations=(cons.gaussian(),) * 2), InvalidInputError, None,
     "one constellation per stream"),
    (_generate(gain_model="rayleigh"), InvalidInputError, None, "unknown gain model"),
    (_generate(block_len=0), InvalidInputError, None, "block_len must be >= 1"),
    (lambda: scn.rescale_energy(_ZERO, -1.0), InvalidInputError, None,
     "total_energy must be finite and >= 0, got -1.0"),
    (lambda: scn.rescale_energy(_ZERO, 1.0), InvalidInputError, None, "zero-energy"),
    (lambda: scn.build_pools([], n=3), InvalidInputError, None, "at least one energy arrival"),
], ids=["invalid-json", "top-level-list", "arrival-not-object", "unknown-constellation",
        "custom-no-points", "custom-no-probs", "custom-invalid", "constellation-number",
        "non-numeric-gains", "bool-gains", "string-gains", "huge-int-gains", "n-below-1", "gains-shape", "constellation-count",
        "unknown-gain-model", "block-len-0", "rescale-negative", "rescale-zero-energy",
        "no-arrivals"])
def test_scenario_input_checks_raise_typed_errors(call, error, field, match):
    with pytest.raises(error, match=match) as err:
        call()
    assert getattr(err.value, "field", None) == field


@pytest.mark.parametrize("call, message", [
    (_generate(k=0), "k must be >= 1, got 0"),
    (_generate(k=-1), "k must be >= 1, got -1"),
    (_generate(n=5.5), "n must be an integer >= 1, got 5.5"),
    (_generate(n=np.int64(0)), "n must be >= 1, got 0"),
    (_generate(j=2.5), "j must be an integer >= 1, got 2.5"),
    (_generate(block_len=2.5), "block_len must be an integer >= 1, got 2.5"),
    (_generate(seed=1.5), "seed must be an integer, got 1.5"),
    (_generate(seed=True), "seed must be an integer, got True"),
    (_scenario(n=2.0), "n must be an integer >= 1, got 2.0"),
    (_scenario(arrivals=((1, 1.0), (2.5, 1.0))), "arrival access must be an integer >= 1, got 2.5"),
    (_scenario(arrivals=((True, 1.0),)), "arrival access must be an integer >= 1, got True"),
    (lambda: ev.complexity_ensemble([2.7], 1), "every J must be an integer >= 1, got 2.7"),
    (lambda: ev.complexity_ensemble([True], 1), "every J must be an integer >= 1, got True"),
    (lambda: tbl.build_table(cons.bpsk(), n_points=64.5),
     "n_points must be an integer >= 64, got 64.5"),
    (lambda: tbl.table_for(cons.bpsk(), n_points=64.5),
     "n_points must be an integer >= 64, got 64.5"),
], ids=["generate-k-0", "generate-k-negative", "generate-n-float", "generate-n-numpy-0",
        "generate-j-float",
        "generate-block-len-float", "generate-seed-float", "generate-seed-bool", "scenario-n-float",
        "arrival-access-float", "arrival-access-bool", "complexity-j-float", "complexity-j-bool",
        "build-table-n-points-float", "table-for-n-points-float"])
def test_every_count_access_seed_and_size_is_an_integer(call, message):
    # a float is never truncated and a bool is never 0 or 1
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        call()


def test_numpy_integers_are_read_as_ints():
    kw = dict(ts=1.0, total_energy=1.0, constellations=("bpsk", "4pam"))
    s = scn.generate(n=np.int64(6), k=np.int32(2), j=np.int64(3), block_len=np.uint8(4),
                     seed=np.uint64(5), **kw)
    assert all(type(v) is int for v in (s.n, s.k, s.seed, *(e for e, _ in s.arrivals)))
    assert s == scn.generate(n=6, k=2, j=3, block_len=4, seed=5, **kw)
    assert scn.loads(scn.dumps(s)) == s


# ---------------------------------------------------------------------------
# the real-number rule: every duration, energy, tolerance and table bound
# ---------------------------------------------------------------------------

_ONE = _scenario()()


def _solved():
    return off.nda_solve(_ONE)


def _epoch(**changes):
    args = dict(gains=np.ones((1, 2)), tables=(tbl.table_for(cons.gaussian()),), budget=0.5,
                ts=1.0)
    return lambda: wf.EpochProblem(**{**args, **changes})


@pytest.mark.parametrize("call, message", [
    (_scenario(ts=True), "ts must be finite and > 0, got True"),
    (_scenario(ts="x"), "ts must be finite and > 0, got 'x'"),
    (_scenario(ts=10**400), f"ts must be finite and > 0, got {10**400!r}"),
    (_scenario(arrivals=((1, True),)), "packet energy must be finite and >= 0, got True"),
    (_scenario(seed=1.5), "seed must be an integer, got 1.5"),
    (_generate(total_energy=math.nan), "total_energy must be finite and >= 0, got nan"),
    (_generate(total_energy=True), "total_energy must be finite and >= 0, got True"),
    (_generate(total_energy="x"), "total_energy must be finite and >= 0, got 'x'"),
    (lambda: scn.rescale_energy(_ONE, math.nan), "total_energy must be finite and >= 0, got nan"),
    (lambda: scn.rescale_energy(_ONE, True), "total_energy must be finite and >= 0, got True"),
    (_epoch(budget=True), "budget must be finite and >= 0, got True"),
    (_epoch(ts="x"), "ts must be finite and > 0, got 'x'"),
    (lambda: wf.classical_wf(np.ones(3), 1.0, "x"), "ts must be finite and > 0, got 'x'"),
    (lambda: off.kkt_verify(_ONE, _solved(), tol=True), "tol must be finite and > 0, got True"),
    (lambda: off.kkt_verify(_ONE, _solved(), tol="x"), "tol must be finite and > 0, got 'x'"),
    (lambda: on.causal_ecc_check(_ONE, _solved(), tol=math.nan),
     "tol must be finite and > 0, got nan"),
    (lambda: on.causal_ecc_check(_ONE, _solved(), tol=-1.0),
     "tol must be finite and > 0, got -1.0"),
    (lambda: tbl.table_for(cons.bpsk(), snr_max="x"), "snr_max must be finite and > 0, got 'x'"),
    (lambda: tbl.build_table(cons.bpsk(), snr_max=True),
     "snr_max must be finite and > 0, got True"),
], ids=["scenario-ts-bool", "scenario-ts-string", "scenario-ts-huge-int", "arrival-joules-bool",
        "scenario-seed-float", "generate-energy-nan", "generate-energy-bool",
        "generate-energy-string", "rescale-nan", "rescale-bool", "epoch-budget-bool",
        "epoch-ts-string", "classical-wf-ts-string", "kkt-tol-bool", "kkt-tol-string",
        "ecc-tol-nan", "ecc-tol-negative", "table-for-snr-max-string", "build-table-snr-max-bool"])
def test_every_duration_energy_tolerance_and_bound_is_a_real_number(call, message):
    # a bool is never 0 or 1, a string never parsed, and an int past the doubles never finite
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        call()


_GAUSS = tbl.table_for(cons.gaussian())
_NORMAL = "gains must be finite and >= 2.2250738585072014e-308, got"


@pytest.mark.parametrize("call, message", [
    (_scenario(gains=[["x", 1.0]]), f"{_NORMAL} 'x'"),
    (_scenario(k=2, gains=[[1.0], [1.0, 2.0]]), f"{_NORMAL} [[1.0], [1.0, 2.0]]"),
    (_scenario(gains=[[True, True]]), f"{_NORMAL} True"),
    (_scenario(gains=np.array([[1.0, math.nan]])), f"{_NORMAL} nan"),
    (_scenario(gains=[[10**400, 1.0]]), f"{_NORMAL} {10**400}"),
    (lambda: cons.Constellation("discrete", ["a", "b"], [0.5, 0.5]),
     "points must be finite and >= -inf, got 'a'"),
    (lambda: cons.Constellation("discrete", [-1.0, 1.0], [True, True]),
     "probs must be finite and > 0, got True"),
    (lambda: cons.Constellation("discrete", [-1.0, 1.0], "ab"),
     "probs must be finite and > 0, got 'ab'"),
    (lambda: cons.Constellation("discrete", {"x": 1}, [0.5, 0.5]),
     "points must be finite and >= -inf, got {'x': 1}"),
    (lambda: _GAUSS.mmse_at("x"), "snr must be finite and >= 0, got 'x'"),
    (lambda: _GAUSS.mmse_at("1.5"), "snr must be finite and >= 0, got '1.5'"),
    (lambda: _GAUSS.mmse_at(True), "snr must be finite and >= 0, got True"),
    (lambda: _GAUSS.mmse_inverse(np.array([True])),
     "psi must be finite and > 0, got array([ True])"),
    (lambda: wf.power_at_level(_GAUSS, 1.0, "x"), "water level must be finite and >= 0, got 'x'"),
    (lambda: wf.power_at_level(_GAUSS, 1.0, None),
     "water level must be finite and >= 0, got None"),
    (lambda: wf.power_at_level(_GAUSS, 1.0, [1.0, math.nan]),
     "water level must be finite and >= 0, got nan"),
    (_epoch(gains=[["x"]]), f"{_NORMAL} 'x'"),
    (lambda: wf.classical_wf(["x"], 1.0), f"{_NORMAL} 'x'"),
    (lambda: wf.classical_wf([True, True], 1.0), f"{_NORMAL} True"),
    # numpy reads a list that mixes bools with numbers as floats; the rule reads it by entry
    (lambda: cons.Constellation("discrete", [True, -1.0], [0.5, 0.5]),
     "points must be finite and >= -inf, got True"),
    (_scenario(gains=[[True, 1.0]]), f"{_NORMAL} True"),
    (lambda: cons.Constellation("discrete", [-1.0, 0.0, 1.0], [0.25, True, 0.25]),
     "probs must be finite and > 0, got True"),
    (lambda: _GAUSS.mmse_at([0.5, True]), "snr must be finite and >= 0, got True"),
    (lambda: wf.power_at_level(_GAUSS, 1.0, (2.0, False)),
     "water level must be finite and >= 0, got False"),
], ids=["scenario-gains-string", "scenario-gains-ragged", "scenario-gains-bool",
        "scenario-gains-nan", "scenario-gains-huge-int", "points-strings", "probs-bool", "probs-string", "points-dict",
        "mmse-at-string", "mmse-at-numeric-string", "mmse-at-bool", "mmse-inverse-bool-array",
        "level-string", "level-none", "level-nan", "epoch-gains-string", "classical-wf-string",
        "classical-wf-bool", "points-bool-and-number", "gains-bool-and-number",
        "probs-bool-and-number", "mmse-at-bool-and-number", "level-bool-and-number"])
def test_every_gain_point_prob_query_and_level_array_holds_real_numbers(call, message):
    # the one array rule: a bool array, a string, a ragged list, a dict or None never converts
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        call()


def test_the_array_rule_reads_an_int_past_int64_as_the_scalar_rule_does():
    # numpy holds such ints as objects; each converts as _real converts it
    assert _scenario(gains=[[2**70, 1.0]])().gains.tolist() == [[2.0**70, 1.0]]


def _long_rows(bad):
    rows = np.ones((4, 1600)).tolist()
    rows[2][700] = bad
    return rows


@pytest.mark.parametrize("call, quoted", [
    (_scenario(n=1600, k=4, gains=_long_rows("x"), constellations=(cons.gaussian(),) * 4), "'x'"),
    (_scenario(n=1600, k=4, gains=_long_rows(-1.0), constellations=(cons.gaussian(),) * 4),
     "-1.0"),
    (_loads(n=1600, k=4, gains=_long_rows("x"), constellations=["gaussian"] * 4), "'x'"),
    (_scenario(n=1600, k=2, gains=[[1.0] * 1600, [1.0] * 1599],
               constellations=(cons.gaussian(),) * 2),
     "[[1.0, 1.0, 1.0, 1.0, 1.0, 1.0, ...], [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, ...]]"),
    (lambda: cons.Constellation("discrete", {str(i): i for i in range(1000)}, [0.5, 0.5]),
     "{'0': 0, '1': 1, '10': 10, '100': 100, ...}"),
    (lambda: cons.Constellation("discrete", ["x" * 10_000, 1.0], [0.5, 0.5]), "'xxxxxxxxxxxx"),
    (_scenario(gains=[np.ones((40, 40)), np.ones((40, 41))]), "got [array("),
], ids=["string", "negative", "config-string", "ragged", "dict", "long-string", "arrays"])
def test_an_error_quotes_one_entry_or_a_bounded_form(call, quoted):
    # the first entry outside, not the whole input; a ragged list, a dict or a long
    # string bounded as reprlib bounds it
    with pytest.raises(InvalidInputError) as err:
        call()
    assert quoted in str(err.value) and len(str(err.value)) < 200


_ANY = st.one_of(st.integers(-3, 2**70), st.integers(-2**63, 2**63 - 1).map(np.int64),
                 st.floats(), st.floats(width=32).map(np.float32), st.booleans(),
                 st.booleans().map(np.bool_), st.text(max_size=3), st.none(), st.just(10**400))


@settings(max_examples=300, deadline=None)
@given(value=_ANY, strict=st.booleans())
def test_the_scalar_and_array_rules_share_one_definition(value, strict):
    # _real(v) and _reals([v]) accept the same values with the same float, or raise the same text
    def outcome(rule):
        try:
            return float(rule())
        except InvalidInputError as exc:
            return str(exc)
    scalar = outcome(lambda: errors._real(value, "x", strict))
    for entries in ([value], (value,), np.array([value], dtype=object)):
        assert repr(outcome(lambda: errors._reals(entries, "x", strict)[0])) == repr(scalar)


_STRATEGIES = {"nda": None, "fsa": None, "online": 5, "dwf": None, "pbp-wf": None,
               "pbp-hgwf": None}


def test_a_float32_symbol_duration_is_stored_as_a_float():
    # a float32 ts kept budget / ts and the solvers' residual tests in float32 under numpy 2
    base = scn.generate(n=40, k=2, ts=0.01, j=5, total_energy=1.0,
                        constellations=("bpsk", "16pam"), seed=5)
    s = dataclasses.replace(base, ts=np.float32(0.01))
    ref = dataclasses.replace(base, ts=float(np.float32(0.01)))
    assert type(s.ts) is float and s == ref and scn.loads(scn.dumps(s)) == s
    for name, f_w in _STRATEGIES.items():
        alloc = ev.run_strategy(s, name, f_w=f_w)
        assert alloc.powers.tobytes() == ev.run_strategy(ref, name, f_w=f_w).powers.tobytes()
        if name in ("nda", "fsa"):
            assert off.kkt_verify(s, alloc).passed
    tables = off.stream_tables(s)
    problem = wf.EpochProblem(s.gains[:, :8], tables, 0.3, np.float32(0.01))
    assert type(problem.ts) is float and type(problem.budget) is float
    assert wf.solve_epoch(problem).powers.tobytes() == wf.solve_epoch(
        wf.EpochProblem(s.gains[:, :8], tables, 0.3, float(np.float32(0.01)))).powers.tobytes()


# values of each kind a caller might pass: ints, numpy ints and floats, floats, bools and
# strings; each Scenario field either rejects one or stores what round-trips
_KINDS = (int, np.int64, np.float32, float, bool, str)
_SAMPLE = st.one_of(st.integers(-2, 2**70), st.integers(-2, 2**62).map(np.int64),
                    st.floats(width=32).map(np.float32), st.floats(), st.booleans(),
                    st.text(max_size=3))


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(_KINDS), ts=_SAMPLE, joules=_SAMPLE,
       seed=st.one_of(st.none(), _SAMPLE))
def test_scenario_fields_are_rejected_or_round_trip(kind, ts, joules, seed):
    # n, k and the arrival's access share one kind, so each is an int in a third of the draws
    try:
        s = scn.Scenario(n=kind(3), k=kind(2), ts=ts, gains=np.ones((2, 3)),
                         arrivals=((kind(1), joules),), constellations=(cons.gaussian(),) * 2,
                         seed=seed)
    except InvalidInputError:
        return
    assert type(s.ts) is float and type(s.arrivals[0][1]) is float
    assert s.seed is None or type(s.seed) is int
    assert scn.loads(scn.dumps(s)) == s


_SPEC = {"model": "block_random", "block_len": 1}


@pytest.mark.parametrize("changes, match", [
    ({"ts_seconds": 0.0}, "ts must be finite and > 0, got 0.0"),
    ({"arrivals": [{"access": e, "joules": 1.0} for e in (1, 2, 3)]},
     "arrival at access 3 exceeds n = 2"),
    ({"constellations": ["gaussian", "gaussian"]}, "need exactly one constellation per stream"),
    ({"k": 0}, "k must be >= 1, got 0"),
    ({"gains": {"model": "rayleigh"}}, "unknown gain model 'rayleigh'"),
    ({"gains": {**_SPEC, "block_len": 0}}, "block_len must be >= 1, got 0"),
], ids=["ts", "arrival-past-n", "constellation-count", "k-0", "unknown-model", "block-len-0"])
def test_a_gains_spec_fails_as_explicit_gains_do(changes, match):
    # a gains generator spec draws inside the same SchemaError conversion as Scenario checks
    for gains in (_DOC["gains"], _SPEC):
        doc = {**_DOC, "seed": 1, "gains": gains, **changes}
        with pytest.raises(SchemaError, match=f"^{re.escape(match)}$"):
            scn.loads(json.dumps(doc))


def test_a_constellation_name_is_not_a_constellation():
    with pytest.raises(InvalidInputError, match=r"^stream 2's constellation must be a "
                       r"Constellation, got 'bpsk'; constellations.by_name makes one from a name$"):
        off.nda_solve(_scenario(k=2, gains=np.ones((2, 2)),
                                constellations=(cons.bpsk(), "bpsk"))())


def test_packets_whose_total_overflows_rejected():
    # each packet is finite, but their total is inf: every solver would get an inf budget
    with pytest.raises(InvalidInputError, match="finite total, got inf"):
        scn.Scenario(n=3, k=1, ts=1.0, gains=np.ones((1, 3)), arrivals=((1, 1e308), (2, 1e308)),
                     constellations=(cons.bpsk(),))
    fine = scn.Scenario(n=3, k=1, ts=1.0, gains=np.ones((1, 3)),
                        arrivals=((1, 1e308), (2, 7e307)), constellations=(cons.bpsk(),))
    assert fine.total_energy == 1.7e308
    doc = json.loads(scn.dumps(fine))
    doc["arrivals"][1]["joules"] = 1e308
    with pytest.raises(SchemaError, match="finite total"):
        scn.loads(json.dumps(doc))


def test_scenario_gains_are_its_own_read_only_copy():
    gains = np.ones((2, 3))
    s = scn.Scenario(n=3, k=2, ts=1.0, gains=gains, arrivals=((1, 1.0),),
                     constellations=(cons.bpsk(), cons.bpsk()))
    with pytest.raises(ValueError, match="read-only"):
        s.gains[0, 0] = 0.0
    gains[0, 0] = 0.0   # the caller's array, after the scenario checked it
    assert s.gains[0, 0] == 1.0 and gains[0, 0] == 0.0
    moved = scn.rescale_energy(s, 2.0)
    assert not moved.gains.flags.writeable and moved.gains.tolist() == s.gains.tolist()
    # copies, and scenarios pickled to the worker processes of a parallel sweep, too
    for copied in (copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert copied == s and not copied.gains.flags.writeable
