import collections
import hashlib
import inspect
import math
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mercuryflow import constellations as cons
from mercuryflow import tables as tb
from mercuryflow.errors import InvalidInputError, TableBuildError, TableRangeError
from mercuryflow.waterfill import power_at_level

import _reference as ref
from conftest import FINITE_BUILTINS


def test_gaussian_table_matches_closed_forms(builtin_tables):
    t = builtin_tables["gaussian"]
    assert np.max(np.abs(t.mmse_values - 1.0 / (1.0 + t.snr_grid))) < 1e-12
    assert t.mmse_inverse(0.25) == pytest.approx(3.0, abs=1e-14)
    assert t.mmse_inverse(1.0) == 0.0
    assert t.mercury_factor(0.3) == 1.0
    assert t.mi_at(3.0) == pytest.approx(1.0, abs=1e-14)


def test_round_trip_all_interior_grid_points(builtin_tables):
    t = builtin_tables["bpsk"]
    s = t.snr_grid[1:-1]
    back = t.mmse_inverse(t.mmse_at(s))
    assert np.max(np.abs(back - s) / s) < 1e-6


def test_inverse_of_exact_mmse(builtin_tables):
    psi = ref.mmse_exact(cons.bpsk(), 2.0)
    assert builtin_tables["bpsk"].mmse_inverse(psi) == pytest.approx(2.0, rel=1e-6)


def test_inverse_edge_cases(builtin_tables):
    t = builtin_tables["4pam"]
    assert t.mmse_inverse(1.0) == 0.0
    assert t.mmse_inverse(1.7) == 0.0  # above mmse(0)
    with pytest.raises(InvalidInputError):
        t.mmse_inverse(0.0)
    with pytest.raises(InvalidInputError):
        t.mmse_inverse(-0.2)


def test_inverse_below_floor_raises_range_error(builtin_tables):
    t = builtin_tables["bpsk"]
    with pytest.raises(TableRangeError, match="snr_max"):
        t.mmse_inverse(t.mmse_floor * 0.5)


def test_gaussian_inverse_below_the_normal_doubles_raises_range_error(builtin_tables):
    # 1/psi - 1 would overflow: the Gaussian floor is the smallest normal double
    with pytest.raises(TableRangeError, match=r"gaussian table floor 2\.2250738585072014e-308"):
        builtin_tables["gaussian"].mmse_inverse(1e-310)


_MAPS = {
    "mmse_at": (lambda t, x: t.mmse_at(x), "snr must be finite and >= 0", [-1e-300]),
    "mi_at": (lambda t, x: t.mi_at(x), "snr must be finite and >= 0", [-1.0]),
    "mmse_inverse": (lambda t, x: t.mmse_inverse(x), "psi must be finite and > 0", [0.0, -0.5]),
    "mercury_factor": (lambda t, x: t.mercury_factor(x), "psi must be finite and > 0", [0.0, -2.0]),
    "power_at_level": (lambda t, x: power_at_level(t, x, 1.5), "gain must be finite and > 0",
                       [0.0, -1.0]),
}


@pytest.mark.parametrize("name", list(_MAPS))
@pytest.mark.parametrize("label", ["bpsk", "gaussian"])
def test_query_check_rejects_and_shapes(builtin_tables, name, label):
    fn, message, out_of_range = _MAPS[name]
    t = builtin_tables[label]
    for bad in [math.nan, math.inf, -math.inf, *out_of_range]:
        for x in (bad, np.array([0.5, bad])):
            exact = f"^{re.escape(f'{message}, got {bad!r}')}$"   # the first entry outside
            with pytest.raises(InvalidInputError, match=exact):
                fn(t, x)
    assert type(fn(t, 0.5)) is float
    out = fn(t, np.array([0.5, 0.7]))
    assert isinstance(out, np.ndarray) and out.shape == (2,)
    assert out[0] == fn(t, 0.5)


def test_forward_beyond_top_raises(builtin_tables):
    # bpsk's grid stops at the mmse floor, well below its snr_max
    t = builtin_tables["bpsk"]
    with pytest.raises(TableRangeError, match=re.escape(
            f"beyond the bpsk table top {t.snr_top!r}, where the table's snr_max or the "
            "1e-250 mmse floor ends its grid")):
        t.mmse_at(t.snr_top * 2.0)


def test_invalid_constellation_rejected_before_build():
    with pytest.raises(InvalidInputError):
        cons.Constellation("discrete", np.array([-1.0, 1.0]), np.array([0.7, 0.4]))


def test_table_invariants(builtin_tables):
    for name in FINITE_BUILTINS:
        t = builtin_tables[name]
        assert abs(t.mmse_values[0] - 1.0) < 1e-9
        assert np.all(np.diff(t.mmse_values) < 0.0)
        assert np.all((t.mmse_values > 0.0) & (t.mmse_values <= 1.0))
        assert np.all(np.diff(t.mi_values) >= 0.0)
        assert t.mi_values[-1] <= t.constellation.max_information_bits() + 1e-12
        assert np.all(np.diff(t.snr_grid) > 0.0)
        assert t.snr_grid[0] == 0.0


def test_forward_matches_quadrature(builtin_tables):
    # a log-spaced sample of cell midpoints over each table's whole stored
    # range, where the interpolant is farthest from its nodes
    for name in FINITE_BUILTINS:
        t = builtin_tables[name]
        mids = 0.5 * (t.snr_grid[1:-1] + t.snr_grid[2:])   # the cells from 1e-3 to snr_top
        for s in mids[np.linspace(0, mids.size - 1, 24).astype(int)]:
            exact = ref.mmse_exact(t.constellation, float(s))
            assert abs(t.mmse_at(float(s)) - exact) / exact < 1e-9, (name, s)


def test_mi_interp_matches_quadrature(builtin_tables):
    rng = np.random.default_rng(6)
    for name in FINITE_BUILTINS:
        t = builtin_tables[name]
        for s in np.exp(rng.uniform(math.log(1e-2), math.log(80.0), 8)):
            assert t.mi_at(float(s)) == pytest.approx(
                ref.mutual_information(cons.by_name(name), float(s)), abs=1e-8
            )


def test_truncation_of_underflowing_tails(builtin_tables):
    t = builtin_tables["bpsk"]
    # the BPSK tail underflows far below snr_max; the stored grid stops there
    assert 500.0 < t.snr_top < t.snr_max_requested
    assert t.mmse_floor >= tb.MMSE_FLOOR
    t32 = builtin_tables["32pam"]
    assert t32.snr_top == pytest.approx(1e4)


def test_mercury_factor_values(builtin_tables):
    t = builtin_tables["bpsk"]
    assert t.mercury_factor(1.5) == 1.0
    grid = np.linspace(0.02, 0.99, 200)
    g = t.mercury_factor(grid)
    assert np.all(np.diff(g) < 0.0)  # strictly decreasing for BPSK
    assert np.all(g > 0.0)


def test_mercury_factor_nonincreasing_all_finite(builtin_tables):
    grid = np.linspace(0.02, 0.99, 200)
    for name in FINITE_BUILTINS:
        g = builtin_tables[name].mercury_factor(grid)
        assert np.all(np.diff(g) <= 1e-12)


def test_build_rejects_small_grid():
    with pytest.raises(InvalidInputError):
        tb.build_table(cons.bpsk(), n_points=32)
    with pytest.raises(InvalidInputError):
        tb.build_table(cons.bpsk(), snr_max=0.0)


def test_verify_grid_names_offending_indices():
    snr = np.array([0.0, 1.0, 2.0, 3.0])
    bad = np.array([1.0, 0.5, 0.6, 0.4])  # rises at index 1 -> 2
    with pytest.raises(TableBuildError) as err:
        tb._verify_grid(snr, bad, "synthetic")
    assert 1 in err.value.indices


@pytest.mark.parametrize("mmse, message, indices", [
    ([0.9, 0.5, 0.4, 0.3], "synthetic: mmse at snr=0 is 0.9, expected 1", [0]),
    ([1.0, 0.5, 0.0, -0.1], "synthetic: mmse values leave (0, 1] at indices [2, 3]", [2, 3]),
    ([1.0, 0.5, math.nan, 0.3], "synthetic: mmse values leave (0, 1] at indices [2]", [2]),
], ids=["mmse-0-not-1", "mmse-leaves-unit-interval", "mmse-nan"])
def test_verify_grid_input_checks(mmse, message, indices):
    with pytest.raises(TableBuildError, match=f"^{re.escape(message)}$") as err:
        tb._verify_grid(np.arange(4.0), np.array(mmse), "synthetic")
    assert err.value.indices == indices


def test_build_rejects_a_decreasing_mutual_information(monkeypatch):
    monkeypatch.setattr(tb, "_integrate_mi", lambda grid, mmse, dmmse: -grid)
    with pytest.raises(TableBuildError, match=r"^bpsk: mutual information decreases at "
                       r"indices \[0, 1, 2, 3, 4, 5, 6, 7\]$") as err:
        tb.build_table(cons.bpsk(), n_points=64)
    assert err.value.indices[:3] == [0, 1, 2]


def test_csv_export(builtin_tables, tmp_path):
    t = builtin_tables["4pam"]
    path = tmp_path / "t.csv"
    t.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "snr,mmse,mi_bits"
    assert len(lines) == t.snr_grid.size + 1
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("name", ["4pam", "gaussian"])
def test_csv_export_matches_per_entry_reference(builtin_tables, tmp_path, name):
    t = builtin_tables[name]
    rows = ["snr,mmse,mi_bits\n"]
    for snr, mmse, mi in zip(t.snr_grid, t.mmse_values, t.mi_values):
        rows.append(f"{float(snr)!r},{float(mmse)!r},{float(mi)!r}\n")
    path = tmp_path / "t.csv"
    t.to_csv(path)
    assert path.read_bytes() == "".join(rows).encode()


def test_disk_cache_round_trip(tmp_path, monkeypatch):
    monkeypatch.setenv(tb.CACHE_ENV_VAR, str(tmp_path))
    tb.clear_cache()
    try:
        small = tb.table_for(cons.bpsk(), snr_max=10.0, n_points=64)
        small.mmse_inverse(0.5)   # packs the table's bank
        files = list(tmp_path.glob("*.npz"))
        assert len(files) == 1
        tb.clear_cache()
        assert tb._bank.cache_info().currsize == 0
        again = tb.table_for(cons.bpsk(), snr_max=10.0, n_points=64)
        assert np.array_equal(small.snr_grid, again.snr_grid)
        assert np.array_equal(small.mmse_values, again.mmse_values)
    finally:
        tb.clear_cache()


def _resaved(path, edit):
    """Write the snapshot at ``path`` again, its arrays as ``edit`` leaves them."""
    with np.load(path) as z:
        arrays = {f: z[f] for f in z.files}
    edit(arrays)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def _nan_mmse(arrays):
    arrays["mmse_values"][20] = math.nan


def _swapped_snr(arrays):
    arrays["snr_grid"][[10, 11]] = arrays["snr_grid"][[11, 10]]


_CUTS = {
    # np.savez wrote straight to the snapshot's path, so a killed writer left such a file
    "empty": lambda path: path.write_bytes(b""),
    "half": lambda path: path.write_bytes(path.read_bytes()[: path.stat().st_size // 2]),
    # whole archives that are not the table: an array gone, one cut and one reversed, text,
    # a NaN, an snr grid out of order
    "no-dlog": lambda path: _resaved(path, lambda a: a.pop("dlog_mmse")),
    "short": lambda path: _resaved(path, lambda a: a.update(mmse_values=a["mmse_values"][:-5],
                                                             dlog_mmse=a["dlog_mmse"][::-1])),
    "text": lambda path: _resaved(path, lambda a: a.update(dlog_mmse=a["dlog_mmse"].astype(str))),
    "nan": lambda path: _resaved(path, _nan_mmse),
    "unsorted": lambda path: _resaved(path, _swapped_snr),
}


@pytest.mark.parametrize("cut", list(_CUTS))
def test_a_cut_disk_snapshot_is_a_miss_and_is_replaced(tmp_path, monkeypatch, cut):
    monkeypatch.setenv(tb.CACHE_ENV_VAR, str(tmp_path))
    tb.clear_cache()
    try:
        fresh = tb.table_for(cons.bpsk(), snr_max=10.0, n_points=64)
        (path,) = tmp_path.glob("*.npz")
        _CUTS[cut](path)
        tb.clear_cache()
        again = tb.table_for(cons.bpsk(), snr_max=10.0, n_points=64)
        assert all(getattr(again, f).tobytes() == getattr(fresh, f).tobytes() for f in tb._ARRAYS)
        assert list(tmp_path.iterdir()) == [path]   # the build replaced it, and left no .part
        with np.load(path) as z:
            assert sorted(z.files) == sorted(tb._STORED)
            assert all(z[f].tobytes() == getattr(fresh, f).tobytes() for f in tb._STORED)
    finally:
        tb.clear_cache()


@pytest.mark.parametrize("scale", [1.0, 1.5], ids=["five-arrays", "log-mmse-scaled"])
def test_a_five_array_snapshot_serves_the_fresh_build(tmp_path, monkeypatch, scale):
    # older snapshots also hold log mmse and mi; the table derives both from the three
    # arrays it checks, so a log mmse that disagrees with the mmse is never served
    monkeypatch.setenv(tb.CACHE_ENV_VAR, str(tmp_path))
    tb.clear_cache()
    try:
        fresh = tb.table_for(cons.bpsk(), snr_max=10.0, n_points=64)
        (path,) = tmp_path.glob("*.npz")
        _resaved(path, lambda a: a.update({f: getattr(fresh, f) for f in tb._ARRAYS},
                                          log_mmse=fresh.log_mmse * scale))
        tb.clear_cache()
        monkeypatch.setattr(tb, "build_table", None)   # served from the snapshot, not built
        again = tb.table_for(cons.bpsk(), snr_max=10.0, n_points=64)
        assert all(getattr(again, f).tobytes() == getattr(fresh, f).tobytes() for f in tb._ARRAYS)
        assert again.mmse_inverse(0.3) == fresh.mmse_inverse(0.3)
        assert again.mmse_at(2.0) == fresh.mmse_at(2.0)
    finally:
        tb.clear_cache()


_GRID, _MMSE = np.array([0.0, 1.0, 2.0]), np.array([1.0, 0.5, 0.25])


@pytest.mark.parametrize("grid, mmse, dlog, message", [
    (_GRID, _MMSE, -_MMSE[:2], "a table needs three float64 arrays of one length >= 2, "
     "got float64 (3,), float64 (3,), float64 (2,)"),
    (_GRID[:1], _MMSE[:1], -_MMSE[:1], "a table needs three float64 arrays of one length >= 2, "
     "got float64 (1,), float64 (1,), float64 (1,)"),
    (np.arange(3), _MMSE, -_MMSE, "a table needs three float64 arrays of one length >= 2, "
     "got int64 (3,), float64 (3,), float64 (3,)"),
    (np.array([0.0, 2.0, 1.0]), _MMSE, -_MMSE,
     "snr grid not finite and increasing from 0 at indices [2]"),
    (np.array([-math.inf, 1.0, math.inf]), _MMSE, -_MMSE,
     "snr grid not finite and increasing from 0 at indices [0, 2]"),
    (np.array([1.0, 2.0, 3.0]), _MMSE, -_MMSE,
     "snr grid not finite and increasing from 0 at indices [0]"),
    (_GRID, _MMSE, np.array([-1.0, 0.5, math.nan]),
     "d log mmse/d snr not finite and <= 0 at indices [1, 2]"),
    (_GRID, np.array([1.0, 0.5, 0.5]), -_MMSE, "mmse not strictly decreasing at indices [1]"),
], ids=["unequal-lengths", "one-point", "int-grid", "grid-out-of-order", "grid-infinite",
        "grid-not-from-0", "dlog-positive-or-nan", "mmse-flat"])
def test_a_table_refuses_arrays_that_are_not_one(grid, mmse, dlog, message):
    with pytest.raises(TableBuildError, match=f"^bpsk: {re.escape(message)}$"):
        tb.MmseTable(cons.bpsk(), grid, mmse, dlog, 10.0)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=1e-6, max_value=0.999999))
def test_forward_of_inverse_round_trip(psi):
    t = tb.table_for(cons.pam(4))
    snr = t.mmse_inverse(psi)
    assert t.mmse_at(snr) == pytest.approx(psi, rel=1e-9)


@pytest.mark.parametrize("name", [*FINITE_BUILTINS, "gaussian"])
def test_inverse_forward_residual_dense(builtin_tables, name):
    # the seed plus two Newton steps leave a rounding-level forward residual
    t = builtin_tables[name]
    psi = np.exp(np.random.default_rng(17).uniform(math.log(t.mmse_floor), 0.0, 100_000))
    back = np.log(t.mmse_at(t.mmse_inverse(psi)))
    tol = 1e-13 * np.maximum(np.abs(np.log(psi)), 1.0)
    assert np.all(np.abs(back - np.log(psi)) <= tol)


def test_bank_is_cached_per_tables_tuple(builtin_tables):
    tabs = (builtin_tables["bpsk"], builtin_tables["gaussian"])
    bank = tb._bank(tabs)
    assert tb._bank(tabs) is bank
    # the packed inverse of a stream equals that table's own inverse
    psi = np.array([[0.9, 0.2, 1e-30], [0.9, 0.2, 1e-30]])
    snr = tb._invert(bank, np.arange(2)[:, None], psi)[0]
    assert np.array_equal(snr[0], tabs[0].mmse_inverse(psi[0]))
    assert np.array_equal(snr[1], tabs[1].mmse_inverse(psi[1]))


def _build_bytes(name):
    t = tb.build_table(cons.by_name(name), n_points=64)
    return b"".join(getattr(t, f).tobytes() for f in tb._ARRAYS)


@pytest.mark.parametrize("name", ["16pam", "32pam"])
def test_build_bytes_do_not_depend_on_workers_or_workspace(monkeypatch, name):
    # every point is computed alone and every sum runs along one row, so the
    # worker count, the pairwise blocks and the GH chunks cannot move a bit
    default = _build_bytes(name)
    monkeypatch.setattr(tb, "_workers", lambda: 1)
    assert _build_bytes(name) == default
    # one pair per pairwise block and one point per GH chunk, on more workers
    # than cores, switching threads often, with the GH node cache to fill
    monkeypatch.setattr(tb, "_workers", lambda: 3)
    monkeypatch.setattr(tb, "WORKSPACE", 1)
    cons._gh_nodes.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        assert _build_bytes(name) == default
    finally:
        sys.setswitchinterval(interval)


def test_build_jobs_never_share_a_workspace_share(monkeypatch):
    # eight workers on fewer cores, switching threads often, each worker thread
    # computing in its own share of one mapped workspace (a 32pam GH point split
    # along Q/2): no share is computed in by two threads, and no bit moves
    default = _build_bytes("32pam")
    threads = collections.defaultdict(set)   # share address -> threads that computed in it

    def recorded(fn):
        sig = inspect.signature(fn)

        def job(*args, **kwargs):
            out = sig.bind(*args, **kwargs).arguments.get("out")
            if out is not None:
                threads[out.ctypes.data].add(threading.get_ident())
            return fn(*args, **kwargs)
        return job

    monkeypatch.setattr(tb, "_pairwise_mmse", recorded(tb._pairwise_mmse))
    monkeypatch.setattr(tb, "_gh_mmse_grid", recorded(tb._gh_mmse_grid))
    monkeypatch.setattr(tb, "_workers", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        assert _build_bytes("32pam") == default
    finally:
        sys.setswitchinterval(interval)
    assert len(threads) > 1
    assert all(len(users) == 1 for users in threads.values()), dict(threads)


def test_pairwise_tail_stops_at_the_floor(builtin_tables, monkeypatch):
    # the tail evaluates one point below MMSE_FLOOR, where build_table cuts
    # the grid, and none past it; the table is the same bytes
    real, tail = tb._pairwise_mmse, []

    def counted(c, snr, **kw):
        if kw.get("step") == 0.4:
            tail.append(snr)
        return real(c, snr, **kw)

    monkeypatch.setattr(tb, "_pairwise_mmse", counted)
    t = tb.build_table(cons.bpsk())
    assert t.snr_grid.size < tb.DEFAULT_N_POINTS
    assert sum(snr > t.snr_top for snr in tail) == 1
    assert ref.mmse_exact(cons.bpsk(), float(max(tail)), check=False) < tb.MMSE_FLOOR
    assert all(getattr(t, f).tobytes() == getattr(builtin_tables["bpsk"], f).tobytes()
               for f in tb._ARRAYS)


def _traced_peak_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


# A build maps its workspace of 2 * WORKSPACE elements, which tracemalloc
# does not see, so a build's peak counts it in.
MAPPED_MB = 2 * tb.WORKSPACE * 8 / 2**20

# Bounds on the peaks, a third above what they measure.  The worst 32pam
# probe, which allocates its own two block arrays and the window search's
# three when called alone, peaks at 4.9 MB; the order-192 probe sweep at
# 3.2 MB; and a small 32pam build at 4.4-5.3 MB on 1, 2, 4 and 8 workers,
# 3.8 MB of it the mapped workspace.
PAIRWISE_PEAK_MB = 6.5
GH_PROBE_SWEEP_PEAK_MB = 4.45
BUILD_PEAK_MB = 7.1


def test_pairwise_rule_stays_within_its_workspace():
    # snr 23.9 is the worst of the 32pam build's exact probes
    assert _traced_peak_mb(lambda: cons._pairwise_mmse(cons.pam(32), 23.9)) < PAIRWISE_PEAK_MB


def test_gh_probe_sweep_stays_within_its_workspace():
    c = cons.pam(32)
    cons._gh_nodes(192)
    probes = np.geomspace(1e-3, 1e4, 32)
    n = tb._gh_points(c, 192, tb.WORKSPACE)

    def sweep():
        for k in range(0, probes.size, n):
            cons._gh_mmse_grid(c, probes[k : k + n], 192)

    assert _traced_peak_mb(sweep) < GH_PROBE_SWEEP_PEAK_MB


def test_build_workers_share_one_workspace(monkeypatch):
    # one bound for every worker count: the workers split one workspace
    peaks = {}
    for workers in (1, 2, 4, 8):
        monkeypatch.setattr(tb, "_workers", lambda w=workers: w)
        traced = _traced_peak_mb(lambda: tb.build_table(cons.pam(32), n_points=64))
        peaks[workers] = traced + MAPPED_MB
    assert max(peaks.values()) < BUILD_PEAK_MB, peaks


def test_gauss_legendre_constants_mirror_numpys_rule():
    # shipped so that no build runs leggauss's eigensolver; exact mirrors of each
    # other, and within 4 ulps of the rule numpy computes
    x, w = np.array(tb._GL_NODES), np.array(tb._GL_WEIGHTS)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    ref_x, ref_w = np.polynomial.legendre.leggauss(8)
    assert np.all(np.abs(x - ref_x) <= 4 * np.spacing(np.abs(ref_x)))
    assert np.all(np.abs(w - ref_w) <= 4 * np.spacing(ref_w))


def test_a_cold_build_does_not_call_leggauss(monkeypatch):
    def fail(*args):
        raise AssertionError("leggauss called")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", fail)
    t = tb.build_table(cons.pam(4), n_points=64)
    assert t.mi_values[-1] > 0.0


def test_default_tables_keep_their_bytes(builtin_tables):
    # the five default tables, in BUILTIN_NAMES order: a change that moves any
    # stored bit (the Gauss-Legendre constants, a kernel) shows here
    digest = hashlib.sha256()
    for name in cons.BUILTIN_NAMES:
        for f in tb._ARRAYS:
            digest.update(getattr(builtin_tables[name], f).tobytes())
    assert digest.hexdigest() == "dffb547ab1a0260550c5654f938645951029851a194077ed4d46f879cac963e1"
