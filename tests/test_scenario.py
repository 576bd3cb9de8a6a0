import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mercuryflow import constellations as cons
from mercuryflow import scenario as scn
from mercuryflow.errors import InvalidInputError, SchemaError


def test_generate_single_packet_normalization():
    s = scn.generate(n=5, k=1, ts=1.0, j=1, total_energy=5.0,
                     constellations=("gaussian",), seed=0)
    assert s.arrivals == ((1, 5.0),)


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
