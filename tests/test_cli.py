import json
import math
import re

import numpy as np
import pytest

from mercuryflow import cli
from mercuryflow import constellations as cons
from mercuryflow import evaluation as ev
from mercuryflow import offline as off
from mercuryflow import scenario as scn
from mercuryflow import tables as tbl
from mercuryflow.errors import (
    ConvergenceError,
    InvalidInputError,
    MercuryflowError,
    SchemaError,
    TableBuildError,
    TableRangeError,
)


@pytest.fixture()
def scenario_config(tmp_path):
    s = scn.Scenario(
        n=2, k=1, ts=1.0, gains=np.ones((1, 2)),
        arrivals=((1, 3.0), (2, 1.0)),
        constellations=(cons.gaussian(),),
    )
    path = tmp_path / "scenario.json"
    scn.save(s, path)
    return path


def run_cli(args):
    return cli.main([str(a) for a in args])


def test_run_nda_summary(scenario_config, tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli(["run", "--alg", "nda", "--config", scenario_config, "--out", out])
    assert code == 0
    msg = capsys.readouterr().out
    assert "alg=nda" in msg and "kkt_pass=true" in msg
    assert "water_levels=[3.0,3.0]" in msg
    assert (out / "allocation_nda.csv").exists()


def test_run_online_window_required(scenario_config, tmp_path, capsys):
    code = run_cli(["run", "--alg", "online", "--window", "0",
                    "--config", scenario_config, "--out", tmp_path])
    assert code == 2
    assert "error code=2" in capsys.readouterr().err


@pytest.mark.parametrize("window", [["--window", "0"], []], ids=["window-0", "no-window"])
@pytest.mark.parametrize("command", ["run", "trace"])
def test_online_window_is_checked_before_any_table_is_built(scenario_config, tmp_path, capsys,
                                                           monkeypatch, command, window):
    monkeypatch.delenv(tbl.CACHE_ENV_VAR, raising=False)
    monkeypatch.setattr(tbl, "_TABLE_CACHE", {})
    monkeypatch.setattr(tbl, "build_table", lambda *a, **k: pytest.fail("a table was built"))
    code = run_cli([command, "--alg", "online", *window, "--config", scenario_config,
                    "--out", tmp_path])
    assert code == 2
    assert "error code=2" in capsys.readouterr().err


def test_run_all_algorithms(scenario_config, tmp_path):
    for alg in ("nda", "fsa", "dwf", "pbp-wf", "pbp-hgwf"):
        assert run_cli(["run", "--alg", alg, "--config", scenario_config,
                        "--out", tmp_path]) == 0
    assert run_cli(["run", "--alg", "online", "--window", "2",
                    "--config", scenario_config, "--out", tmp_path]) == 0


def test_run_deterministic_outputs(scenario_config, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_cli(["run", "--alg", "nda", "--config", scenario_config, "--out", out1])
    run_cli(["run", "--alg", "nda", "--config", scenario_config, "--out", out2])
    assert (out1 / "allocation_nda.csv").read_bytes() == (out2 / "allocation_nda.csv").read_bytes()


def test_verify_pass_and_fail(scenario_config, tmp_path, capsys):
    out = tmp_path / "out"
    run_cli(["run", "--alg", "nda", "--config", scenario_config, "--out", out])
    alloc = out / "allocation_nda.csv"
    assert run_cli(["verify", "--config", scenario_config, "--allocation", alloc]) == 0
    # corrupt: double every power so the battery is overdrawn
    lines = alloc.read_text().splitlines()
    head, rows = lines[0], lines[1:]
    bad_rows = []
    for r in rows:
        parts = r.split(",")
        parts[3] = repr(2.0 * float(parts[3]))
        bad_rows.append(",".join(parts))
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join([head] + bad_rows) + "\n")
    capsys.readouterr()
    assert run_cli(["verify", "--config", scenario_config, "--allocation", bad]) == 4
    assert "ecc=fail" in capsys.readouterr().out


def test_tables_subcommand(tmp_path, capsys):
    code = run_cli(["tables", "--constellations", "gaussian", "--out", tmp_path])
    assert code == 0
    assert (tmp_path / "table_gaussian.csv").exists()
    assert "constellation=gaussian" in capsys.readouterr().out


def test_sweep_subcommand(tmp_path, capsys):
    cfg = {
        "params": {"n": 6, "k": 1, "ts": 1.0, "j": 2,
                   "constellations": ["gaussian"], "gain_model": "static", "seed": 4},
        "energy_grid": [0.5, 1.0],
        "strategies": ["mwflow", "pbp-wf"],
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg))
    assert run_cli(["sweep", "--config", path, "--out", tmp_path]) == 0
    text = (tmp_path / "sweep.csv").read_text()
    assert text.splitlines()[0] == "energy,strategy,mi_bits"
    assert len(text.splitlines()) == 5


def test_complexity_subcommand(tmp_path, capsys):
    cfg = {"j_grid": [3, 5], "runs": 4}
    path = tmp_path / "complexity.json"
    path.write_text(json.dumps(cfg))
    assert run_cli(["complexity", "--config", path, "--out", tmp_path]) == 0
    out = capsys.readouterr().out
    assert "bounds_ok=true" in out
    assert (tmp_path / "complexity.csv").exists()


def test_trace_subcommand(scenario_config, tmp_path):
    assert run_cli(["trace", "--config", scenario_config, "--out", tmp_path]) == 0
    text = (tmp_path / "trace.csv").read_text()
    assert text.splitlines()[0] == "n,k,inv_gain,mercury_level,water_level,power"


def test_config_errors_exit_2(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert run_cli(["run", "--alg", "nda", "--config", missing, "--out", tmp_path]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(["run", "--alg", "nda", "--config", bad, "--out", tmp_path]) == 2
    incomplete = tmp_path / "inc.json"
    incomplete.write_text(json.dumps({"n": 2}))
    assert run_cli(["run", "--alg", "nda", "--config", incomplete, "--out", tmp_path]) == 2
    capsys.readouterr()
    spec = {"n": 4, "k": 1, "ts_seconds": 1.0, "arrivals": [{"access": 1, "joules": 1.0}],
            "constellations": ["gaussian"], "seed": 1}
    for field, value in (("block_len", "x"), ("block_len", 2.5), ("constant_across_streams", "no")):
        bad_spec = tmp_path / "spec.json"
        bad_spec.write_text(json.dumps({**spec, "gains": {"model": "block_random", field: value}}))
        assert run_cli(["run", "--alg", "nda", "--config", bad_spec, "--out", tmp_path]) == 2
        assert f"'gains.{field}'" in capsys.readouterr().err
    good, tiny, latin1 = tmp_path / "good.json", tmp_path / "tiny.json", tmp_path / "latin1.json"
    good.write_text(json.dumps({**spec, "gains": [[1.0] * 4]}))
    tiny.write_text(json.dumps({**spec, "gains": [[1.0, 1e-310, 1.0, 1.0]]}))
    latin1.write_bytes(b'{"n": "\xe9"}')
    taken = tmp_path / "taken"
    taken.write_text("")
    for argv in (["run", "--alg", "nda", "--config", tmp_path],   # a directory
                 ["run", "--alg", "nda", "--config", good, "--out", taken],   # a file
                 ["run", "--alg", "nda", "--config", latin1],
                 ["run", "--alg", "dwf", "--config", tiny],
                 ["verify", "--config", good, "--allocation", tmp_path]):
        assert run_cli([*argv, *(() if "--out" in argv else ("--out", tmp_path))]) == 2, argv
        assert "error code=2" in capsys.readouterr().err


def test_a_gains_spec_with_no_streams_exits_2(tmp_path, capsys):
    # the generator checks k before it draws a gain for each stream
    cfg = {"n": 20, "k": 0, "ts_seconds": 1.0, "arrivals": [{"access": 1, "joules": 0.5}],
           "gains": {"model": "block_random", "block_len": 4}, "constellations": [], "seed": 7}
    path = tmp_path / "k0.json"
    path.write_text(json.dumps(cfg))
    assert run_cli(["run", "--alg", "nda", "--config", path, "--out", tmp_path]) == 2
    assert 'error code=2 message="k must be >= 1, got 0"' in capsys.readouterr().err


_SWEEP = {"params": {"n": 6, "k": 1, "ts": 1.0, "j": 2, "constellations": ["gaussian"],
                     "gain_model": "static", "seed": 4},
          "energy_grid": [0.5, 1.0]}


@pytest.mark.parametrize("command, cfg, where", [
    ("complexity", {"j_grid": [3, 5], "runs": "x"}, "'runs'"),
    ("complexity", {"j_grid": [3, 5], "runs": 2.9}, "'runs'"),
    ("complexity", {"j_grid": [3, 5], "runs": 2, "base_seed": "abc"}, "'base_seed'"),
    ("complexity", {"j_grid": "ab", "runs": 2}, "'j_grid'"),
    ("complexity", {"j_grid": [3], "runs": 2, "params": {"j": 4}}, "'params.j'"),
    ("sweep", {**_SWEEP, "energy_grid": "abc"}, "'energy_grid'"),
    ("sweep", {**_SWEEP, "energy_grid": ["abc"]}, "'energy_grid'"),
    ("sweep", {**_SWEEP, "params": {**_SWEEP["params"], "bogus": 1}}, "'params.bogus'"),
    ("sweep", {**_SWEEP, "params": {**_SWEEP["params"], "n": "x"}}, "'params.n'"),
    ("sweep", {**_SWEEP, "params": {**_SWEEP["params"], "n": True}}, "'params.n'"),
    ("sweep", {**_SWEEP, "params": {**_SWEEP["params"], "seed": "a"}}, "'params.seed'"),
    ("sweep", {**_SWEEP, "params": {**_SWEEP["params"], "ts": "x"}}, "'params.ts'"),
    ("sweep", {**_SWEEP, "params": {**_SWEEP["params"], "block_len": 2.5}}, "'params.block_len'"),
    ("sweep", {**_SWEEP, "params": {**_SWEEP["params"], "constant_across_streams": "no"}},
     "'params.constant_across_streams'"),
    ("sweep", {**_SWEEP, "params": {**_SWEEP["params"], "constellations": "gaussian"}},
     "'params.constellations'"),
    ("sweep", {**_SWEEP, "params": {**_SWEEP["params"], "constellations": [5]}},
     "'params.constellations'"),
    ("sweep", {**_SWEEP, "params": {k: v for k, v in _SWEEP["params"].items() if k != "j"}},
     "'params.j'"),
    ("sweep", {**_SWEEP, "strategies": 5}, "'strategies'"),
    ("sweep", {**_SWEEP, "strategies": "mwflow"}, "'strategies'"),
    ("sweep", {**_SWEEP, "f_w": 2.5}, "'f_w'"),
    ("complexity", {"j_grid": [3], "runs": 2, "params": {"k": "x", "ts": 1.0, "total_energy": 3.0}},
     "'params.k'"),
    ("complexity", {"j_grid": [3], "runs": 2, "params": {"k": 1, "ts": 1.0}},
     "'params.total_energy'"),
    ("complexity", {"j_grid": [3, 5], "runs": True}, "'runs'"),
    ("complexity", {"j_grid": [], "runs": 2}, "j_grid must not be empty"),
    ("sweep", {**_SWEEP, "strategies": []}, "strategies must not be empty"),
    # a wrong-typed field and missing ones: a missing one is named first
    ("complexity", {"j_grid": [3], "runs": 2, "params": {"k": "x"}}, "'params.ts'"),
])
def test_experiment_config_errors_exit_2(tmp_path, capsys, command, cfg, where):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run_cli([command, "--config", path, "--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert "error code=2" in err and where in err


@pytest.mark.parametrize("flag, value", [("--config", "/nonexistent.json"), ("--seed", "5")])
def test_tables_takes_no_config_or_seed(tmp_path, capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        run_cli(["tables", "--constellations", "gaussian", flag, value, "--out", tmp_path])
    assert exc.value.code == 2 and "unrecognized arguments" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command, cfg", [("sweep", _SWEEP),
                                          ("complexity", {"j_grid": [2], "runs": 1})])
def test_jobs_below_one_exits_2_before_any_table_is_built(tmp_path, capsys, monkeypatch,
                                                          command, cfg):
    monkeypatch.setattr(ev, "stream_tables", lambda *a: pytest.fail("tables were built"))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run_cli([command, "--config", path, "--jobs", "-3", "--out", tmp_path]) == 2
    assert "jobs must be >= 1, got -3" in capsys.readouterr().err
    with pytest.raises(InvalidInputError, match="jobs must be >= 1, got 0"):
        ev.sweep_energy(_SWEEP["params"], [1.0], jobs=0)


def test_sweep_of_online_without_f_w_exits_2_naming_the_field(tmp_path, capsys, monkeypatch):
    # online is among the default strategies; the config has no f_w
    monkeypatch.setattr(ev, "stream_tables", lambda *a: pytest.fail("tables were built"))
    for cfg in (_SWEEP, {**_SWEEP, "strategies": ["mwflow", "online"]}):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(["sweep", "--config", path, "--out", tmp_path]) == 2
        assert "missing required field 'f_w'" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_numeric_error_exit_3(tmp_path, capsys):
    # enough energy to push BPSK past its table range on one access
    s = scn.Scenario(n=1, k=1, ts=1.0, gains=np.ones((1, 1)),
                     arrivals=((1, 50000.0),), constellations=(cons.bpsk(),))
    path = tmp_path / "hot.json"
    scn.save(s, path)
    assert run_cli(["run", "--alg", "nda", "--config", path, "--out", tmp_path]) == 3
    assert "error code=3" in capsys.readouterr().err


def test_unknown_algorithm_rejected(scenario_config, tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(["run", "--alg", "sorcery", "--config", scenario_config, "--out", tmp_path])
    assert exc.value.code == 2


def test_seed_override(tmp_path):
    cfg = {
        "n": 10, "k": 1, "ts_seconds": 1.0,
        "arrivals": [{"access": 1, "joules": 1.0}, {"access": 4, "joules": 1.0}],
        "gains": {"model": "block_random", "block_len": 3},
        "constellations": ["gaussian"],
        "seed": 1,
    }
    path = tmp_path / "gen.json"
    path.write_text(json.dumps(cfg))
    out1, out2, out3 = tmp_path / "o1", tmp_path / "o2", tmp_path / "o3"
    run_cli(["run", "--alg", "nda", "--config", path, "--out", out1, "--seed", "9"])
    run_cli(["run", "--alg", "nda", "--config", path, "--out", out2, "--seed", "9"])
    run_cli(["run", "--alg", "nda", "--config", path, "--out", out3, "--seed", "10"])
    f1 = (out1 / "allocation_nda.csv").read_bytes()
    assert f1 == (out2 / "allocation_nda.csv").read_bytes()
    assert f1 != (out3 / "allocation_nda.csv").read_bytes()


def test_verify_prints_plain_float_residual(tmp_path, capsys):
    # a PAM scenario, so the stationarity residual comes from the table path
    s = scn.generate(n=40, k=2, ts=0.01, j=6, total_energy=1.0,
                     constellations=("bpsk", "4pam"), gain_model="block_random",
                     block_len=4, seed=5)
    path = tmp_path / "scenario.json"
    scn.save(s, path)
    out = tmp_path / "out"
    assert run_cli(["run", "--alg", "nda", "--config", path, "--out", out]) == 0
    capsys.readouterr()
    assert run_cli(["verify", "--config", path, "--allocation", out / "allocation_nda.csv"]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    residual = float(line.split("max_residual=", 1)[1])
    assert 0.0 <= residual <= 1e-7


@pytest.mark.parametrize("column, value, where", [
    (5, "9", "row (1, 1): pool 9"),
    (5, "0", "row (1, 1): pool 0"),
    (6, "7", "row (1, 1): epoch 7"),
    (3, "abc", "line 2"),
    (3, "-1.0", "power of stream 1 access 1 must be finite and >= 0, got -1.0"),
    (3, "nan", "power of stream 1 access 1 must be finite and >= 0, got nan"),
])
def test_verify_malformed_allocation_exits_2(scenario_config, tmp_path, capsys,
                                             column, value, where):
    out = tmp_path / "out"
    run_cli(["run", "--alg", "nda", "--config", scenario_config, "--out", out])
    lines = (out / "allocation_nda.csv").read_text().splitlines()
    parts = lines[1].split(",")
    parts[column] = value
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join([lines[0], ",".join(parts)] + lines[2:]) + "\n")
    capsys.readouterr()
    assert run_cli(["verify", "--config", scenario_config, "--allocation", bad]) == 2
    err = capsys.readouterr().err
    assert "error code=2" in err and where in err


def test_verify_relabelled_pool_exits_2(scenario_config, tmp_path, capsys):
    out = tmp_path / "out"
    run_cli(["run", "--alg", "nda", "--config", scenario_config, "--out", out])
    lines = (out / "allocation_nda.csv").read_text().splitlines()
    assert lines[2].startswith("2,1,") and lines[2].split(",")[5] == "2"
    parts = lines[2].split(",")
    parts[5] = "1"  # access 2 claimed for pool 1
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines[:2] + [",".join(parts)]) + "\n")
    capsys.readouterr()
    assert run_cli(["verify", "--config", scenario_config, "--allocation", bad]) == 2
    assert "row (2, 1): pool 1, but access 2 is in pool 2" in capsys.readouterr().err


@pytest.fixture()
def one_pool_config(tmp_path):
    s = scn.Scenario(n=3, k=1, ts=1.0, gains=np.ones((1, 3)), arrivals=((1, 3.0),),
                     constellations=(cons.gaussian(),))
    path = tmp_path / "one_pool.json"
    scn.save(s, path)
    return path


@pytest.mark.parametrize("config, line, column, value, where", [
    ("scenario_config", 1, 2, "1000000.0",
     "row (1, 1): lambda 1000000.0, but the scenario's gain is 1.0"),
    ("one_pool_config", 2, 6, "-1", "pool 1: rows carry epochs [-1, 1]"),
    ("one_pool_config", 2, 4, "99", "pool 1: rows carry water levels [2.0, 99.0]"),
    ("scenario_config", 1, 6, "2", "pool 1: epoch 2, but epochs must all be -1 or run 1, 2"),
    ("scenario_config", 2, 4, "5.0", "pool 2: water level 5.0, but pool 1 of its epoch has 3.0"),
    ("scenario_config", 2, 6, "-1", "pool 2: epoch -1, but epochs must all be -1 or run 1, 2"),
], ids=["lambda", "pool-epoch", "pool-level", "epoch-order", "epoch-level", "some-online"])
def test_verify_inconsistent_allocation_exits_2(request, tmp_path, capsys,
                                                config, line, column, value, where):
    path = request.getfixturevalue(config)
    out = tmp_path / "out"
    run_cli(["run", "--alg", "nda", "--config", path, "--out", out])
    lines = (out / "allocation_nda.csv").read_text().splitlines()
    parts = lines[line].split(",")
    parts[column] = value
    lines[line] = ",".join(parts)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run_cli(["verify", "--config", path, "--allocation", bad]) == 2
    err = capsys.readouterr().err
    assert "error code=2" in err and where in err


def test_verify_online_allocation_exits_2(scenario_config, tmp_path, capsys):
    run_cli(["run", "--alg", "online", "--window", "2", "--config", scenario_config,
             "--out", tmp_path])
    capsys.readouterr()
    path = tmp_path / "allocation_online.csv"
    assert run_cli(["verify", "--config", scenario_config, "--allocation", path]) == 2
    assert "an online allocation has none" in capsys.readouterr().err


@pytest.mark.parametrize("exc, code", [
    (InvalidInputError("bad input"), 2),
    (SchemaError("bad field", field="n"), 2),
    (TableBuildError("not monotone"), 3),
    (TableRangeError("beyond the top"), 3),
    (ConvergenceError("out of iterations"), 3),
    (MercuryflowError("other"), 4),
])
def test_error_classes_map_to_exit_codes(monkeypatch, tmp_path, capsys, exc, code):
    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_tables", fail)
    assert run_cli(["tables", "--out", tmp_path]) == code
    assert f"error code={code} message={json.dumps(str(exc))}" in capsys.readouterr().err


def test_infinite_symbol_duration_exits_2(scenario_config, tmp_path, capsys):
    doc = json.loads(scenario_config.read_text())
    doc["ts_seconds"] = math.inf
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(doc))
    assert '"ts_seconds": Infinity' in path.read_text()
    assert run_cli(["run", "--alg", "nda", "--config", path, "--out", tmp_path]) == 2
    assert "ts must be finite" in capsys.readouterr().err


def test_packets_whose_total_overflows_exit_2(scenario_config, tmp_path, capsys):
    doc = json.loads(scenario_config.read_text())
    doc["arrivals"] = [{"access": 1, "joules": 1e308}, {"access": 2, "joules": 1e308}]
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    for alg in ("nda", "fsa"):
        assert run_cli(["run", "--alg", alg, "--config", path, "--out", tmp_path]) == 2
        assert "packet energies must sum to a finite total, got inf" in capsys.readouterr().err


def test_infinite_snr_max_exits_2(tmp_path, capsys):
    with pytest.raises(InvalidInputError, match="snr_max must be finite and > 0, got inf"):
        tbl.build_table(cons.bpsk(), snr_max=math.inf)
    assert run_cli(["tables", "--constellations", "bpsk", "--snr-max", "inf",
                    "--out", tmp_path]) == 2
    assert "snr_max must be finite and > 0, got inf" in capsys.readouterr().err


@pytest.mark.parametrize("snr_max", [1e-3, 5e-4])
def test_snr_max_at_or_below_the_grid_start_exits_2(tmp_path, capsys, snr_max):
    # such a grid is flat or descends, and the tail cut left a 2-point table
    message = f"snr_max must exceed 1e-3, the grid's first point, got {snr_max!r}"
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        tbl.build_table(cons.bpsk(), snr_max=snr_max, n_points=64)
    assert run_cli(["tables", "--constellations", "bpsk", "--snr-max", snr_max,
                    "--n-points", 64, "--out", tmp_path]) == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("field", ["ts_seconds", "joules"])
def test_an_int_past_the_doubles_in_a_config_exits_2(scenario_config, tmp_path, capsys, field):
    # read as an int, it fails the field's own rule as Infinity does: no OverflowError traceback
    doc = json.loads(scenario_config.read_text())
    if field == "ts_seconds":
        doc["ts_seconds"] = 10**400
    else:
        doc["arrivals"][1]["joules"] = 10**400
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert run_cli(["run", "--alg", "nda", "--config", path, "--out", tmp_path]) == 2
    name = "ts" if field == "ts_seconds" else "packet energy"
    assert f"error code=2 message=\"{name} must be finite and" in capsys.readouterr().err


@pytest.mark.parametrize("points", [["a", "b"], [[1.0], [1.0, 2.0]], {"x": 1}, "ab", [True, True],
                                    [True, -1.0]],
                         ids=["strings", "ragged", "object", "string", "bools", "bool-and-number"])
def test_custom_constellation_points_that_are_not_numbers_exit_2(scenario_config, tmp_path,
                                                                 capsys, points):
    doc = json.loads(scenario_config.read_text())
    doc["constellations"] = [{"points": points, "probs": [0.5, 0.5]}]
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(doc))
    assert run_cli(["run", "--alg", "nda", "--config", path, "--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert "error code=2" in err and "points must be finite and >= -inf, got" in err


def test_a_json_integer_past_the_digit_limit_exits_2(scenario_config, tmp_path, capsys):
    # json raises a plain ValueError, not a JSONDecodeError, past Python's 4300-digit limit
    doc = json.loads(scenario_config.read_text())
    doc["ts_seconds"] = "huge"
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc).replace('"huge"', "1" + "0" * 5000))
    with pytest.raises(SchemaError):
        scn.load(path)
    assert run_cli(["run", "--alg", "nda", "--config", path, "--out", tmp_path]) == 2
    assert "error code=2" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [-3, 2**128], ids=["negative", "2**128"])
def test_seed_outside_the_philox_key_range_exits_2(tmp_path, capsys, seed):
    with pytest.raises(InvalidInputError, match="seed must be in 0 <= seed < 2"):
        scn.generate(n=4, k=1, ts=1.0, j=1, total_energy=1.0, constellations=("gaussian",),
                     seed=seed)
    cfg = {"n": 4, "k": 1, "ts_seconds": 1.0, "arrivals": [{"access": 1, "joules": 1.0}],
           "gains": {"model": "static"}, "constellations": ["gaussian"], "seed": 1}
    path = tmp_path / "gen.json"
    path.write_text(json.dumps(cfg))
    assert run_cli(["run", "--alg", "nda", "--config", path, "--seed", seed,
                    "--out", tmp_path]) == 2
    path.write_text(json.dumps({**cfg, "seed": seed}))
    assert run_cli(["run", "--alg", "nda", "--config", path, "--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert err.count(f"seed must be in 0 <= seed < 2**128, got {seed}") == 2


@pytest.mark.parametrize("tol", ["nan", "inf", "0"])
def test_verify_tolerance_must_be_finite_and_positive(scenario_config, tmp_path, capsys, tol):
    s = scn.load(scenario_config)
    with pytest.raises(InvalidInputError, match="tol must be finite and > 0"):
        off.kkt_verify(s, off.nda_solve(s), tol=float(tol))
    run_cli(["run", "--alg", "nda", "--config", scenario_config, "--out", tmp_path])
    capsys.readouterr()
    assert run_cli(["verify", "--config", scenario_config, "--allocation",
                    tmp_path / "allocation_nda.csv", "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"tol must be finite and > 0, got {float(tol)!r}" in captured.err


def test_sweep_seed_override_equals_the_config_seed(tmp_path):
    cfg = {**_SWEEP, "strategies": ["mwflow", "pbp-wf"]}
    paths = {name: tmp_path / f"{name}.json" for name in ("flag", "config")}
    paths["flag"].write_text(json.dumps(cfg))
    paths["config"].write_text(json.dumps({**cfg, "params": {**cfg["params"], "seed": 7}}))
    outs = {name: tmp_path / name for name in ("flag", "config", "own")}
    assert run_cli(["sweep", "--config", paths["flag"], "--seed", "7", "--out", outs["flag"]]) == 0
    assert run_cli(["sweep", "--config", paths["config"], "--out", outs["config"]]) == 0
    assert run_cli(["sweep", "--config", paths["flag"], "--out", outs["own"]]) == 0
    flag, config, own = ((outs[k] / "sweep.csv").read_bytes() for k in ("flag", "config", "own"))
    assert flag == config != own


@pytest.mark.parametrize("argv, text, message", [
    (["run", "--alg", "nda"], "[1, 2]", "top level must be a JSON object"),
    (["sweep"], "[]", "top level must be a JSON object"),
    (["complexity"], '"runs"', "top level must be a JSON object"),
    (["tables", "--constellations", ","], None, "no constellation names given"),
], ids=["run-list", "sweep-list", "complexity-string", "tables-no-names"])
def test_cli_input_checks_exit_2(tmp_path, capsys, argv, text, message):
    out = tmp_path / "out"
    if text is not None:
        path = tmp_path / "cfg.json"
        path.write_text(text)
        argv = [*argv, "--config", path]
    assert run_cli([*argv, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "error code=2" in err and message in err
    assert not list(out.glob("*"))   # nothing written
