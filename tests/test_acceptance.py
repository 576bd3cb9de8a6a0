"""Acceptance suite.

One test per acceptance criterion; each runs at its stated tolerance, is
checked against its wall-clock budget, and prints a single verdict line
(visible with ``pytest -s`` and in captured output otherwise).  Shared
mmse tables come from the session fixture, so their one-time construction
is not charged to any criterion.
"""

import math
import time

import numpy as np
import pytest

from mercuryflow import constellations as cons
from mercuryflow import evaluation as ev
from mercuryflow import offline as off
from mercuryflow import online as onl
from mercuryflow import scenario as scn

import _reference as ref

FINITE = ("bpsk", "4pam", "16pam", "32pam")


class Timer:
    def __init__(self):
        self.t0 = time.perf_counter()

    @property
    def elapsed(self):
        return time.perf_counter() - self.t0


def report(num, desc, timer, budget):
    dt = timer.elapsed
    print(f"\nACCEPTANCE {num:>2}: PASS in {dt:8.2f}s (budget {budget:>4.0f}s) - {desc}", flush=True)
    assert dt < budget, f"criterion {num} exceeded its budget: {dt:.1f}s > {budget}s"


# ---------------------------------------------------------------------------
# 1. Gaussian oracle suite
# ---------------------------------------------------------------------------

def test_criterion_01_gaussian_closed_forms(builtin_tables):
    t = Timer()
    tab = builtin_tables["gaussian"]
    g = cons.gaussian()
    snrs = np.geomspace(1e-3, 1e4, 60)
    for s in snrs:
        s = float(s)
        assert abs(ref.mmse_exact(g, s) - 1.0 / (1.0 + s)) <= 1e-10
        assert abs(ref.mutual_information(g, s) - 0.5 * math.log2(1.0 + s)) <= 1e-10
        assert abs(tab.mmse_at(s) - 1.0 / (1.0 + s)) <= 1e-10
    for psi in np.linspace(0.01, 1.0, 50):
        psi = float(psi)
        assert abs(tab.mmse_inverse(psi) - (1.0 / psi - 1.0)) <= 1e-10 * (1.0 / psi)
        assert tab.mercury_factor(psi) == 1.0
    report(1, "Gaussian mmse/inverse/MI/G match closed forms to 1e-10", t, 1.0)


# ---------------------------------------------------------------------------
# 2. I-MMSE relation
# ---------------------------------------------------------------------------

def test_criterion_02_i_mmse_relation():
    t = Timer()
    h = 1e-4
    grid = np.geomspace(0.05, 30.0, 20)
    ln2 = math.log(2.0)
    for name in FINITE:
        c = cons.by_name(name)
        for s in grid:
            s = float(s)
            fd = (
                (ref.mutual_information(c, s + h) - ref.mutual_information(c, s - h))
                / (2.0 * h)
                * ln2
            )
            assert abs(fd - 0.5 * ref.mmse_exact(c, s)) <= 1e-5, (name, s)
    report(2, "dI/dsnr = mmse/2 within 1e-5 on a 20-point grid, all built-ins", t, 30.0)


# ---------------------------------------------------------------------------
# 3. Mercury factor monotonicity
# ---------------------------------------------------------------------------

def test_criterion_03_mercury_factor_monotone(builtin_tables):
    t = Timer()
    psi = np.linspace(0.02, 0.99, 200)
    for name in FINITE:
        g = builtin_tables[name].mercury_factor(psi)
        assert np.all(np.diff(g) <= 1e-12), name
        assert np.all(g > 0.0)
    report(3, "mercury factor non-increasing on a 200-point psi grid", t, 10.0)


# ---------------------------------------------------------------------------
# 4 + 6. optimality cross-check ensemble and its call-count bounds
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def optimality_ensemble(builtin_tables):
    rng = np.random.default_rng(20130925)
    records = []
    t0 = time.perf_counter()
    for _ in range(500):
        n = int(rng.integers(4, 41))
        j = int(rng.integers(1, min(8, n) + 1))
        k = int(rng.integers(1, 5))
        s = scn.generate(
            n=n, k=k, ts=0.01, j=j,
            total_energy=float(np.exp(rng.uniform(math.log(0.02), math.log(5.0)))),
            constellations=FINITE[:k],
            gain_model="block_random",
            block_len=int(rng.integers(1, 9)),
            seed=int(rng.integers(1 << 31)),
        )
        tabs = off.stream_tables(s)
        a = off.nda_solve(s, tables=tabs)
        f = off.fsa_solve(s, tables=tabs)
        rep_a = off.kkt_verify(s, a, tol=1e-7, tables=tabs)
        rep_f = off.kkt_verify(s, f, tol=1e-7, tables=tabs)
        scale = max(float(a.powers.max()), 1e-12)
        records.append(
            {
                "j": s.n_arrivals,
                "diff": float(np.max(np.abs(a.powers - f.powers))) / scale,
                "nda_pass": rep_a.passed,
                "fsa_pass": rep_f.passed,
                "nda_calls": a.stats.hg_calls,
                "fsa_calls": f.stats.hg_calls,
            }
        )
    return {"records": records, "wall": time.perf_counter() - t0}


def test_criterion_04_nda_fsa_agree_and_verify(optimality_ensemble):
    t = Timer()
    recs = optimality_ensemble["records"]
    assert len(recs) == 500
    assert max(r["diff"] for r in recs) <= 1e-6
    assert all(r["nda_pass"] for r in recs)
    assert all(r["fsa_pass"] for r in recs)
    dt = optimality_ensemble["wall"]
    print(
        f"\nACCEPTANCE  4: PASS in {dt:8.2f}s (budget  600s) - "
        f"500 scenarios: NDA == FSA to 1e-6, both pass KKT at 1e-7",
        flush=True,
    )
    assert dt < 600.0


def test_criterion_06_call_count_bounds(optimality_ensemble):
    t = Timer()
    for r in optimality_ensemble["records"]:
        j = r["j"]
        assert j <= r["nda_calls"] <= 2 * j - 1, r
        assert 1 <= r["fsa_calls"] <= j * (j + 1) // 2, r
    report(6, "NDA calls in [J, 2J-1], FSA calls in [1, J(J+1)/2], zero violations", t, 60.0)


# ---------------------------------------------------------------------------
# 5. DWF recovery with Gaussian inputs
# ---------------------------------------------------------------------------

def test_criterion_05_dwf_recovery():
    t = Timer()
    rng = np.random.default_rng(77)
    for _ in range(100):
        n = int(rng.integers(3, 31))
        j = int(rng.integers(1, min(6, n) + 1))
        k = int(rng.integers(1, 4))
        s = scn.generate(
            n=n, k=k, ts=0.1, j=j, total_energy=float(rng.uniform(0.1, 10.0)),
            constellations=("gaussian",) * k, gain_model="block_random",
            block_len=int(rng.integers(1, 6)), seed=int(rng.integers(1 << 31)),
        )
        a = off.nda_solve(s)
        ref = off.dwf_reference(s)
        assert np.max(np.abs(a.powers - ref.powers)) <= 1e-8 * max(1.0, float(a.powers.max()))
    report(5, "Gaussian-input solver equals the closed-form reference to 1e-8, 100 runs", t, 60.0)


# ---------------------------------------------------------------------------
# 7. injected-oracle FSA call counts
# ---------------------------------------------------------------------------

def _oracle_scenario(j):
    return scn.Scenario(
        n=j, k=1, ts=1.0, gains=np.ones((1, j)),
        arrivals=tuple((i + 1, 1.0) for i in range(j)),
        constellations=(cons.gaussian(),),
    )


def test_criterion_07_oracle_call_counts():
    t = Timer()
    tables = {
        3: {(1, 1): 1, (1, 0): 3, (0, 1): 4, (0, 0): 6},
        4: {
            (1, 1, 1): 1, (1, 1, 0): 3, (1, 0, 1): 4, (0, 1, 1): 5,
            (1, 0, 0): 6, (0, 1, 0): 7, (0, 0, 1): 8, (0, 0, 0): 10,
        },
        5: {
            (1, 1, 1, 1): 1, (1, 1, 1, 0): 3, (1, 1, 0, 1): 4, (1, 0, 1, 1): 5,
            (0, 1, 1, 1): 6, (1, 1, 0, 0): 6, (1, 0, 1, 0): 7, (0, 1, 1, 0): 8,
            (1, 0, 0, 1): 8, (0, 1, 0, 1): 9, (0, 0, 1, 1): 10, (1, 0, 0, 0): 10,
            (0, 1, 0, 0): 11, (0, 0, 1, 0): 12, (0, 0, 0, 1): 13, (0, 0, 0, 0): 15,
        },
    }
    checked = 0
    for j, patterns in tables.items():
        s = _oracle_scenario(j)
        for pattern, expect in patterns.items():
            a = off.fsa_solve(s, ecc_oracle=tuple(bool(x) for x in pattern))
            assert a.stats.hg_calls == expect, (j, pattern)
            checked += 1
    assert checked == 4 + 8 + 16
    report(7, "all 28 injected-oracle FSA call counts exact for J = 3, 4, 5", t, 1.0)


# ---------------------------------------------------------------------------
# 8. energy sweep reproduction
# ---------------------------------------------------------------------------

def test_criterion_08_energy_sweep(builtin_tables):
    t = Timer()
    n_seeds = 20
    grid = np.geomspace(0.05, 50.0, 10)
    strategies = ("mwflow", "online", "pbp-hgwf", "pbp-wf", "dwf")
    acc = {name: np.zeros(grid.size) for name in strategies}
    for seed in range(n_seeds):
        params = dict(
            n=100, k=4, ts=0.01, j=40, constellations=FINITE,
            gain_model="block_random", block_len=10, seed=1000 + seed,
        )
        res = ev.sweep_energy(params, grid, strategies=strategies, f_w=11)
        for name in strategies:
            acc[name] += res.curves[name]
    mean = {name: acc[name] / n_seeds for name in strategies}
    eps = 1e-9
    assert np.all(mean["mwflow"] >= mean["online"] - eps)
    assert np.all(mean["mwflow"] >= mean["pbp-hgwf"] - eps)
    assert np.all(mean["mwflow"] >= mean["dwf"] - eps)
    top = slice(grid.size // 2, grid.size)
    assert np.all(mean["pbp-hgwf"][top] >= mean["pbp-wf"][top] - eps)
    low_gap = abs(mean["mwflow"][0] - mean["dwf"][0]) / mean["mwflow"][0]
    assert low_gap <= 0.02, low_gap
    report(
        8,
        f"orderings hold on a 10-point sweep x 20 seeds; low-energy DWF gap "
        f"{100 * low_gap:.3f}% <= 2%",
        t,
        900.0,
    )


# ---------------------------------------------------------------------------
# 9. single-run level structure
# ---------------------------------------------------------------------------

def test_criterion_09_trace_structure(builtin_tables):
    t = Timer()
    s = scn.generate(
        n=20, k=4, ts=0.01, j=6, total_energy=2.0, constellations=FINITE,
        gain_model="block_random", block_len=1, constant_across_streams=True,
        seed=424242,
    )
    tabs = off.stream_tables(s)
    a = off.nda_solve(s, tables=tabs)
    levels = a.pool_water_levels
    assert np.all(np.diff(levels) >= -1e-9 * np.maximum(1.0, levels[:-1]))
    assert 1 <= len(a.epochs) <= 6
    # mercury ordering at every access: larger constellations pour less mercury
    for n in range(s.n):
        w = float(a.access_water_levels[n])
        lam = float(s.gains[0, n])
        psi = min(1.0 / (w * lam), 1.0) if w > 0 else 1.0
        mercs = [tabs[k].mercury_factor(psi) / lam for k in range(4)]
        assert all(m1 >= m2 - 1e-9 for m1, m2 in zip(mercs, mercs[1:])), (n, mercs)
    report(
        9,
        f"step-wise non-decreasing level, {len(a.epochs)} epochs, mercury "
        f"ordering bpsk >= 4pam >= 16pam >= 32pam at every access",
        t,
        60.0,
    )


# ---------------------------------------------------------------------------
# 10. average-complexity model fit
# ---------------------------------------------------------------------------

def test_criterion_10_average_complexity_fit():
    t = Timer()
    ens = ev.complexity_ensemble((10, 20, 40, 60, 80), runs=40, base_seed=2024)
    n_runs = sum(len(v) for v in ens.nda_calls.values())
    assert n_runs == 200
    assert 0.9 <= ens.fitted_q <= 1.0, ens.fitted_q
    assert ens.bounds_ok()
    report(
        10,
        f"NDA average-model fit q = {ens.fitted_q:.4f} in [0.9, 1.0]; FSA within bounds",
        t,
        300.0,
    )


# ---------------------------------------------------------------------------
# 11. online causality and no-lookahead
# ---------------------------------------------------------------------------

def test_criterion_11_online_causality(builtin_tables):
    t = Timer()
    rng = np.random.default_rng(31337)
    for i in range(200):
        n = int(rng.integers(5, 61))
        j = int(rng.integers(1, min(10, n) + 1))
        k = int(rng.integers(1, 4))
        s = scn.generate(
            n=n, k=k, ts=0.01, j=j, total_energy=float(rng.uniform(0.05, 3.0)),
            constellations=FINITE[:k], gain_model="block_random",
            block_len=int(rng.integers(1, 8)), seed=int(rng.integers(1 << 31)),
        )
        tabs = off.stream_tables(s)
        f_w = int(rng.integers(1, n + 1))
        a = onl.online_solve(s, f_w, tables=tabs)
        ok, viol = onl.causal_ecc_check(s, a, tol=1e-9)
        assert ok, (i, viol)
        if i % 10 == 0:
            cut = max(2, n // 2)
            gains = s.gains.copy()
            gains[:, cut:] *= float(rng.uniform(0.2, 4.0))
            import dataclasses

            s_pert = dataclasses.replace(s, gains=gains)
            a_pert = onl.online_solve(s_pert, f_w, tables=tabs)
            assert np.array_equal(a.powers[:, :cut], a_pert.powers[:, :cut]), i
    report(
        11,
        "200 online runs satisfy prefix ECCs; committed powers invariant to the future",
        t,
        300.0,
    )
