import dataclasses
import io
import math

import numpy as np
import pytest

from mercuryflow import constellations as cons
from mercuryflow import evaluation as ev
from mercuryflow import offline as off
from mercuryflow import online as onl
from mercuryflow import scenario as scn
from mercuryflow import tables as tbl
from mercuryflow.errors import InvalidInputError, SchemaError
from mercuryflow.waterfill import EpochProblem, classical_wf, solve_epoch


def gaussian_scenario(energies, n, k=1, ts=1.0):
    return scn.Scenario(
        n=n, k=k, ts=ts, gains=np.ones((k, n)), arrivals=tuple(energies),
        constellations=(cons.gaussian(),) * k,
    )


def zero_alloc(s):
    pools = off.build_pools(s.arrivals, s.n)
    return off.Allocation(
        powers=np.zeros((s.k, s.n)),
        pool_water_levels=np.zeros(len(pools)),
        access_water_levels=np.zeros(s.n),
        epoch_of_pool=np.zeros(len(pools), dtype=np.int64),
        epochs=(),
    )


def test_evaluate_mi_zero_allocation():
    s = gaussian_scenario([(1, 1.0)], n=4)
    assert ev.evaluate_mi(s, zero_alloc(s)) == 0.0


def test_evaluate_mi_gaussian_closed_form():
    s = gaussian_scenario([(1, 4.0)], n=2, k=1)
    a = off.nda_solve(s)
    expected = sum(0.5 * math.log2(1.0 + p) for p in a.powers.ravel())
    assert ev.evaluate_mi(s, a) == pytest.approx(expected, rel=1e-12)


def test_evaluate_mi_bpsk_saturates(builtin_tables):
    s = scn.Scenario(n=3, k=1, ts=1.0, gains=np.ones((1, 3)),
                     arrivals=((1, 600.0),), constellations=(cons.bpsk(),))
    a = off.nda_solve(s)
    mi = ev.evaluate_mi(s, a)
    assert mi <= 3.0 + 1e-9
    assert mi == pytest.approx(3.0, abs=1e-6)


def test_pbp_single_pool_equals_mwflow(builtin_tables):
    s = scn.generate(n=6, k=2, ts=1.0, j=1, total_energy=2.0,
                     constellations=("bpsk", "4pam"), gain_model="static", seed=8)
    tabs = off.stream_tables(s)
    a = off.nda_solve(s, tables=tabs)
    p = ev.pbp_solve(s, "tables", tables=tabs)
    assert np.array_equal(a.powers, p.powers)


def test_pbp_per_pool_budgets():
    s = gaussian_scenario([(1, 3.0), (2, 1.0)], n=2)
    p = ev.pbp_solve(s, "gaussian")
    assert p.powers.ravel() == pytest.approx([3.0, 1.0], rel=1e-12)
    mw = off.nda_solve(s)
    assert ev.evaluate_mi(s, p) <= ev.evaluate_mi(s, mw) + 1e-9


def test_pbp_epochs_are_the_per_pool_solves(builtin_tables):
    s = scn.generate(n=12, k=2, ts=0.01, j=4, total_energy=0.5,
                     constellations=("bpsk", "4pam"), gain_model="block_random",
                     block_len=3, seed=7)
    tabs = off.stream_tables(s)
    pools = off.build_pools(s.arrivals, s.n)
    for inputs in ("tables", "gaussian"):
        a = ev.pbp_solve(s, inputs, tables=tabs)
        assert a.epoch_of_pool.tolist() == list(range(len(pools)))
        assert [e.pools for e in a.epochs] == [(p.index,) for p in pools]
        assert a.stats.hg_calls == len(pools)
        for p in pools:
            gains = s.gains[:, p.start - 1 : p.end]
            if inputs == "tables":
                sol = solve_epoch(EpochProblem(gains=gains, tables=tabs, budget=p.energy, ts=s.ts))
            else:
                sol = classical_wf(gains, budget=p.energy, ts=s.ts)
            assert a.pool_water_levels[p.index - 1] == sol.water_level
            assert a.epochs[p.index - 1].water_level == sol.water_level
            assert np.array_equal(a.powers[:, p.start - 1 : p.end], sol.powers)
            assert np.all(a.access_water_levels[p.start - 1 : p.end] == sol.water_level)


def test_pbp_rejects_unknown_inputs():
    s = gaussian_scenario([(1, 1.0)], n=2)
    with pytest.raises(InvalidInputError):
        ev.pbp_solve(s, "qam")


def test_dwf_on_gaussian_scenario_equals_nda():
    s = gaussian_scenario([(1, 2.0), (3, 1.0)], n=4)
    dwf = ev.dwf_solve(s).powers
    assert np.array_equal(dwf, off.dwf_reference(s).powers)
    a = off.nda_solve(s).powers
    # the closed form against the bisection, at the cross-check tolerance
    assert np.max(np.abs(dwf - a)) <= 1e-8 * max(1.0, float(a.max()))


def test_dwf_strategy_matches_nda_on_gaussian_inputs(builtin_tables):
    s = scn.generate(n=40, k=2, ts=0.01, j=6, total_energy=1.0,
                     constellations=("bpsk", "4pam"), gain_model="block_random",
                     block_len=4, seed=5)
    dwf = ev.run_strategy(s, "dwf")
    ref = off.nda_solve(dataclasses.replace(s, constellations=(cons.gaussian(),) * s.k))
    assert [e.pools for e in dwf.epochs] == [e.pools for e in ref.epochs]
    assert dwf.stats.hg_calls == ref.stats.hg_calls
    assert np.max(np.abs(dwf.powers - ref.powers)) <= 1e-8 * max(1.0, float(ref.powers.max()))


def test_gaussian_baselines_take_a_sub_ulp_pool_packet():
    # pool 2's packet is below one ulp of energy at its top floor 1/gain
    s = scn.Scenario(
        n=4, k=1, ts=1.0, gains=np.ones((1, 4)), arrivals=((1, 1.0), (3, 1e-18)),
        constellations=(cons.by_name("bpsk"),),
    )
    pbp = ev.run_strategy(s, "pbp-wf")
    assert pbp.powers[0, 2:].tolist() == [1e-18, 0.0]
    assert pbp.pool_water_levels[1] == 1.0
    dwf = ev.run_strategy(s, "dwf")
    assert len(dwf.epochs) == 1 and dwf.powers.sum() == pytest.approx(1.0, rel=1e-12)
    for alloc in (pbp, dwf):
        assert onl.causal_ecc_check(s, alloc)[0]


def test_dominance_random_ensemble(builtin_tables):
    rng = np.random.default_rng(23)
    names = ("bpsk", "4pam", "16pam", "32pam")
    for _ in range(12):
        n = int(rng.integers(4, 30))
        j = int(rng.integers(1, min(6, n) + 1))
        k = int(rng.integers(1, 5))
        s = scn.generate(n=n, k=k, ts=0.01, j=j,
                         total_energy=float(rng.uniform(0.05, 5.0)),
                         constellations=names[:k], gain_model="block_random",
                         block_len=4, seed=int(rng.integers(1 << 30)))
        tabs = off.stream_tables(s)
        ref = ev.evaluate_mi(s, off.nda_solve(s, tables=tabs), tables=tabs)
        for strat in ("online", "pbp-hgwf", "pbp-wf", "dwf"):
            alloc = ev.run_strategy(s, strat, f_w=max(1, n // 3), tables=tabs)
            assert ev.evaluate_mi(s, alloc, tables=tabs) <= ref + 1e-9
            ok, _ = onl.causal_ecc_check(s, alloc)
            assert ok


def test_sweep_single_point():
    params = dict(n=6, k=1, ts=1.0, j=2, constellations=("gaussian",),
                  gain_model="static", seed=5)
    res = ev.sweep_energy(params, [2.0], strategies=("mwflow",))
    assert res.energies.tolist() == [2.0]
    assert res.curves["mwflow"].shape == (1,)
    assert res.curves["mwflow"][0] > 0.0


def test_sweep_monotone_in_energy_and_dominant(builtin_tables):
    params = dict(n=20, k=2, ts=0.01, j=5, constellations=("bpsk", "4pam"),
                  gain_model="block_random", block_len=4, seed=13)
    res = ev.sweep_energy(params, np.geomspace(0.05, 2.0, 4),
                          strategies=("mwflow", "pbp-hgwf", "pbp-wf", "online"), f_w=6)
    mw = res.curves["mwflow"]
    assert np.all(np.diff(mw) > 0.0)
    assert res.dominance_gap() <= 1e-9


def test_sweep_worker_pool_matches_serial(builtin_tables):
    params = dict(n=12, k=2, ts=0.01, j=3, constellations=("bpsk", "4pam"),
                  gain_model="block_random", block_len=4, seed=7)
    serial = ev.sweep_energy(params, [0.1, 1.0], strategies=("mwflow", "online"), f_w=4)
    pooled = ev.sweep_energy(params, [0.1, 1.0], strategies=("mwflow", "online"), f_w=4, jobs=2)
    for name, curve in serial.curves.items():
        assert np.array_equal(pooled.curves[name], curve)


def test_sweep_csv_format():
    params = dict(n=5, k=1, ts=1.0, j=1, constellations=("gaussian",),
                  gain_model="static", seed=5)
    res = ev.sweep_energy(params, [1.0, 2.0], strategies=("mwflow",))
    text = ev.sweep_csv(res)
    lines = text.splitlines()
    assert lines[0] == "energy,strategy,mi_bits"
    assert len(lines) == 3
    assert lines[1].split(",")[1] == "mwflow"


def test_sweep_csv_matches_per_entry_reference(tmp_path):
    params = dict(n=6, k=2, ts=0.01, j=2, constellations=("bpsk", "gaussian"),
                  gain_model="static", seed=5)
    res = ev.sweep_energy(params, [0.25, 1, 3.5], strategies=("pbp-wf", "mwflow"))
    rows = ["energy,strategy,mi_bits\n"]
    for name in ("pbp-wf", "mwflow"):
        for e, mi in zip(res.energies, res.curves[name]):
            rows.append(f"{float(e)!r},{name},{float(mi)!r}\n")
    path = tmp_path / "sweep.csv"
    ev.sweep_csv(res, path)
    assert path.read_bytes() == "".join(rows).encode()
    assert ev.sweep_csv(res) == "".join(rows)


def test_complexity_ensemble_bounds_and_fit():
    ens = ev.complexity_ensemble((4, 8, 12), runs=10, base_seed=55)
    assert ens.bounds_ok()
    assert math.isfinite(ens.fitted_q) and math.isfinite(ens.fitted_p)
    text = ev.complexity_csv(ens)
    lines = text.splitlines()
    assert lines[0] == "J,seed,alg,calls"
    assert len(lines) == 1 + 2 * 3 * 10


def test_complexity_csv_matches_per_entry_reference():
    ens = ev.complexity_ensemble((2, 5), runs=3, base_seed=7)
    rows = ["J,seed,alg,calls\n"]
    for j in ens.j_values:
        for seed, c in zip(ens.seeds[j], ens.nda_calls[j]):
            rows.append(f"{j},{seed},nda,{c}\n")
        for seed, c in zip(ens.seeds[j], ens.fsa_calls[j]):
            rows.append(f"{j},{seed},fsa,{c}\n")
    buf = io.StringIO()
    assert ev.complexity_csv(ens, buf) is None
    assert buf.getvalue() == "".join(rows)


def test_complexity_worker_pool_matches_serial(builtin_tables):
    params = dict(k=2, ts=0.01, total_energy=1.0, constellations=("bpsk", "4pam"),
                  gain_model="block_random", block_len=2)
    serial = ev.complexity_ensemble((2, 4), runs=2, params=params, base_seed=3)
    pooled = ev.complexity_ensemble((2, 4), runs=2, params=params, base_seed=3, jobs=2)
    assert pooled.seeds == serial.seeds
    assert pooled.nda_calls == serial.nda_calls and pooled.fsa_calls == serial.fsa_calls


@pytest.mark.parametrize("runs", [0, -1])
def test_complexity_ensemble_needs_a_run(runs):
    with pytest.raises(InvalidInputError, match="runs"):
        ev.complexity_ensemble((4, 8), runs=runs)


def test_complexity_ensemble_takes_no_bool_runs():
    with pytest.raises(InvalidInputError, match=r"^runs must be an integer >= 1, got True$"):
        ev.complexity_ensemble((4, 8), runs=True)


def test_sweep_takes_no_bool_jobs():
    params = dict(n=6, k=1, ts=1.0, j=2, constellations=("gaussian",), seed=5)
    with pytest.raises(InvalidInputError, match=r"^jobs must be an integer >= 1, got True$"):
        ev.sweep_energy(params, [1.0], f_w=2, jobs=True)


def test_sweep_of_online_needs_its_window_before_any_solve(monkeypatch):
    params = dict(n=6, k=1, ts=1.0, j=2, constellations=("gaussian",), seed=5)
    monkeypatch.setattr(ev, "stream_tables", lambda *a, **k: pytest.fail("tables were built"))
    monkeypatch.setattr(ev, "generate", lambda *a, **k: pytest.fail("a scenario was drawn"))
    for f_w in (None, 0, True):
        with pytest.raises(InvalidInputError, match=r"^f_w, the online strategy's flowing"):
            ev.sweep_energy(params, [1.0], f_w=f_w)


def _no_work(monkeypatch):
    monkeypatch.setattr(ev, "run_strategy", lambda *a, **k: pytest.fail("a strategy ran"))
    monkeypatch.setattr(ev, "stream_tables", lambda *a, **k: pytest.fail("tables were built"))
    monkeypatch.setattr(ev, "generate", lambda *a, **k: pytest.fail("a scenario was drawn"))


def test_sweep_checks_every_strategy_name_before_any_solve(monkeypatch):
    params = dict(n=6, k=1, ts=1.0, j=2, constellations=("gaussian",), seed=5)
    _no_work(monkeypatch)
    with pytest.raises(InvalidInputError, match=r"^unknown strategy 'pbp-wff'$"):
        ev.sweep_energy(params, [1.0], strategies=("mwflow", "pbp-wff"))


# each runner with valid generate() params that leave out what the runner sets
_RUNNERS = {
    "sweep": (lambda p: ev.sweep_energy(p, [1.0], strategies=("mwflow",)),
              dict(n=6, k=1, ts=1.0, j=2, constellations=("gaussian",))),
    "complexity": (lambda p: ev.complexity_ensemble((2,), runs=1, params=p),
                   dict(k=1, ts=1.0, total_energy=2.0, constellations=("gaussian",))),
}


@pytest.mark.parametrize("runner, key", [("sweep", "bogus"), ("sweep", "total_energy"),
                                         ("complexity", "bogus"), ("complexity", "j")])
def test_runner_params_key_is_checked_before_any_work(monkeypatch, runner, key):
    # a key generate() does not take, or one the runner sets itself
    run, params = _RUNNERS[runner]
    _no_work(monkeypatch)
    with pytest.raises(InvalidInputError, match=rf"^unknown field 'params\.{key}'$") as err:
        run({**params, key: 1})
    assert err.value.field == f"params.{key}"


@pytest.mark.parametrize("run, key", [
    (lambda: ev.sweep_energy(dict(k=1, ts=1.0, j=2, constellations=("gaussian",)), [1.0],
                             strategies=("mwflow",)), "n"),
    (lambda: ev.complexity_ensemble((2,), runs=1, params=dict(ts=1.0, total_energy=1.0)), "k"),
], ids=["sweep", "complexity"])
def test_runner_names_a_missing_params_key_before_any_work(monkeypatch, run, key):
    monkeypatch.setattr(ev, "generate", lambda *a, **k: pytest.fail("a scenario was drawn"))
    monkeypatch.setattr(tbl, "build_table", lambda *a, **k: pytest.fail("a table was built"))
    with pytest.raises(SchemaError, match=rf"^missing required field 'params\.{key}'$") as err:
        run()
    assert err.value.field == f"params.{key}"


def test_trace_csv_level_identity(builtin_tables):
    # active entries satisfy mercury + power == water level exactly
    s = scn.generate(n=10, k=4, ts=0.01, j=3, total_energy=1.0,
                     constellations=("bpsk", "4pam", "16pam", "32pam"),
                     gain_model="block_random", block_len=2,
                     constant_across_streams=True, seed=21)
    tabs = off.stream_tables(s)
    a = off.nda_solve(s, tables=tabs)
    text = ev.trace_csv(s, a, tables=tabs)
    lines = text.splitlines()
    assert lines[0] == "n,k,inv_gain,mercury_level,water_level,power"
    assert len(lines) == 1 + s.n * s.k
    for line in lines[1:]:
        n, k, inv_gain, mercury, water, power = line.split(",")
        if float(power) > 0.0:
            assert float(mercury) + float(power) == pytest.approx(float(water), rel=1e-9)
        assert float(mercury) >= 0.0


def test_trace_csv_matches_per_entry_reference(builtin_tables):
    s = scn.generate(n=16, k=3, ts=0.01, j=4, total_energy=0.6,
                     constellations=("bpsk", "16pam", "gaussian"), gain_model="block_random",
                     block_len=3, seed=13)
    tabs = off.stream_tables(s)
    a = off.nda_solve(s, tables=tabs)
    rows = ["n,k,inv_gain,mercury_level,water_level,power\n"]
    for n in range(s.n):
        w = float(a.access_water_levels[n])
        for k in range(s.k):
            lam = float(s.gains[k, n])
            psi = 1.0 / (w * lam) if w > 0.0 else math.inf
            mercury = tabs[k].mercury_factor(min(psi, 1.0)) / lam
            rows.append(f"{n + 1},{k + 1},{1.0 / lam!r},{mercury!r},{w!r},"
                        f"{float(a.powers[k, n])!r}\n")
    assert ev.trace_csv(s, a, tables=tabs) == "".join(rows)


def test_run_strategy_unknown_name():
    s = gaussian_scenario([(1, 1.0)], n=2)
    with pytest.raises(InvalidInputError):
        ev.run_strategy(s, "magic")
    with pytest.raises(InvalidInputError):
        ev.run_strategy(s, "online")  # needs a window


def test_best_window_degenerate_prefers_full_coverage():
    # single packet, static channel: any window >= N is offline-optimal
    s = scn.generate(n=6, k=1, ts=1.0, j=1, total_energy=2.0,
                     constellations=("gaussian",), gain_model="static", seed=3)
    best, scores = ev.best_window(s)
    assert scores[best] >= max(scores.values()) - 1e-12
    off_mi = ev.evaluate_mi(s, off.nda_solve(s))
    assert scores[s.n] == pytest.approx(off_mi, rel=1e-12)


def test_best_window_rejects_bad_candidates():
    s = gaussian_scenario([(1, 1.0)], n=3)
    with pytest.raises(InvalidInputError):
        ev.best_window(s, candidates=[0, 1])
    with pytest.raises(InvalidInputError):
        ev.best_window(s, candidates=[1.5, 2.9])


def test_sweep_static_channel_keeps_ordering(builtin_tables):
    params = dict(n=24, k=3, ts=0.01, j=6, constellations=("bpsk", "4pam", "16pam"),
                  gain_model="static", seed=31)
    res = ev.sweep_energy(params, [0.2, 2.0],
                          strategies=("mwflow", "online", "pbp-hgwf", "pbp-wf"), f_w=8)
    assert res.dominance_gap() <= 1e-9
    assert np.all(res.curves["pbp-hgwf"] >= res.curves["pbp-wf"] - 1e-9)
