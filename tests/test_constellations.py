import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mercuryflow import constellations as cons
from mercuryflow import tables
from mercuryflow.errors import InvalidInputError

import _reference as ref

FINITE = ("bpsk", "4pam", "16pam", "32pam")


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_builtins_resolve():
    for name in (*FINITE, "gaussian"):
        c = cons.by_name(name)
        assert c.label == name


def test_pam_unit_power_and_zero_mean():
    for q in (2, 4, 8, 16, 32):
        c = cons.pam(q)
        assert c.cardinality == q
        assert abs(np.sum(c.probs * c.points**2) - 1.0) < 1e-12
        assert abs(np.sum(c.probs * c.points)) < 1e-14


def test_validation_rejects_bad_probabilities():
    with pytest.raises(InvalidInputError):
        cons.Constellation("discrete", np.array([-1.0, 1.0]), np.array([0.6, 0.5]))
    with pytest.raises(InvalidInputError):
        cons.Constellation("discrete", np.array([-1.0, 1.0]), np.array([1.0, 0.0]))


def test_validation_rejects_duplicate_points():
    with pytest.raises(InvalidInputError):
        cons.Constellation("discrete", np.array([1.0, 1.0]), np.array([0.5, 0.5]))


def test_validation_rejects_wrong_power():
    with pytest.raises(InvalidInputError):
        cons.Constellation("discrete", np.array([-2.0, 2.0]), np.array([0.5, 0.5]))


def test_validation_rejects_dc_offset():
    pts = np.array([0.0, math.sqrt(2.0)])
    with pytest.raises(InvalidInputError):
        cons.Constellation("discrete", pts, np.array([0.5, 0.5]))


def test_unknown_name():
    with pytest.raises(InvalidInputError):
        cons.by_name("qam64")


_PAIR = np.array([-1.0, 1.0])


@pytest.mark.parametrize("call, message", [
    (lambda: cons.Constellation("gaussian", _PAIR), "gaussian constellation takes no points"),
    (lambda: cons.Constellation("lattice", _PAIR, np.full(2, 0.5)),
     "unknown constellation kind 'lattice'"),
    (lambda: cons.Constellation("discrete", _PAIR, np.full(3, 1 / 3)),
     "points and probs must be 1-D and equal length"),
    (lambda: cons.Constellation("discrete", np.ones(1), np.ones(1)),
     "a discrete constellation needs >= 2 points"),
    (lambda: cons.Constellation("discrete", np.array([-1.0, np.inf]), np.full(2, 0.5)),
     "points must be finite and >= -inf, got inf"),
    (lambda: cons.pam(1), "PAM order must be >= 2, got 1"),
    (lambda: cons.pam(4.0), "PAM order must be an integer >= 2, got 4.0"),
    (lambda: cons.by_name("xpam"), "unknown constellation name 'xpam'"),
    (lambda: cons.by_name(5), "unknown constellation name 5"),
], ids=["gaussian-with-points", "unknown-kind", "shape-mismatch", "one-point", "non-finite-point",
        "pam-1", "pam-float", "pam-name-not-a-number", "name-not-a-string"])
def test_constellation_input_checks(call, message):
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        call()


# ---------------------------------------------------------------------------
# conditional mean
# ---------------------------------------------------------------------------

def test_conditional_mean_bpsk_symmetry():
    assert ref.conditional_mean(cons.bpsk(), y=0.0, snr=4.0) == pytest.approx(0.0, abs=1e-15)


def test_conditional_mean_gaussian_closed_form():
    assert ref.conditional_mean(cons.gaussian(), y=2.0, snr=1.0) == pytest.approx(1.0, abs=1e-15)


def test_conditional_mean_4pam_direct_sum():
    # independent evaluation: explicit Bayes weights with math.fsum accumulation
    c = cons.pam(4)
    y, snr = 0.7, 2.0
    a = math.sqrt(snr)
    weights = [p * math.exp(-0.5 * (y - a * s) ** 2) for s, p in zip(c.points, c.probs)]
    expected = math.fsum(w * s for w, s in zip(weights, c.points)) / math.fsum(weights)
    assert ref.conditional_mean(c, y, snr) == pytest.approx(expected, rel=1e-13)


def test_conditional_mean_rejects_nonfinite():
    with pytest.raises(InvalidInputError):
        ref.conditional_mean(cons.bpsk(), y=float("nan"), snr=1.0)
    with pytest.raises(InvalidInputError):
        ref.conditional_mean(cons.bpsk(), y=0.0, snr=float("inf"))


def test_conditional_mean_high_snr_no_overflow():
    c = cons.pam(32)
    val = ref.conditional_mean(c, y=50.0, snr=1e4)
    assert np.isfinite(val)
    assert abs(val) <= abs(c.points).max()


# ---------------------------------------------------------------------------
# mmse
# ---------------------------------------------------------------------------

def test_mmse_gaussian_closed_form():
    assert ref.mmse_exact(cons.gaussian(), 1.0) == pytest.approx(0.5, abs=1e-15)


def test_mmse_bpsk_at_zero_snr():
    assert ref.mmse_exact(cons.bpsk(), 0.0) == pytest.approx(1.0, abs=1e-15)


def test_mmse_bpsk_against_monte_carlo():
    # 2e7-sample Monte Carlo oracle; quadrature must land inside its 3-sigma CI
    rng = np.random.default_rng(20240817)
    n = 20_000_000
    x = rng.choice([-1.0, 1.0], size=n)
    y = x + rng.standard_normal(n)
    err = (x - np.tanh(y)) ** 2
    mc, ci = float(err.mean()), 3.0 * float(err.std()) / math.sqrt(n)
    assert abs(ref.mmse_exact(cons.bpsk(), 1.0) - mc) < ci


@pytest.mark.parametrize("fn,what", [
    (ref.mmse_exact, "mmse"),
    (ref.mmse_derivative, "mmse-derivative"),
])
def test_pairwise_step_mismatch_raises(monkeypatch, fn, what):
    # a rule whose estimates move with the step fails the half-step check
    monkeypatch.setattr(cons, "_pairwise_mmse", lambda c, snr, step=1.0: (step, -step))
    c, sign = cons.by_name("4pam"), 1.0 if what == "mmse" else -1.0
    with pytest.raises(ref.QuadratureAccuracyError) as err:
        fn(c, 2.0)
    assert str(err.value) == f"{what} quadrature for 4pam did not converge at snr=2.0"
    assert (err.value.coarse, err.value.fine) == (sign, sign * cons._PAIR_STEP / 2.0)
    assert fn(c, 2.0, check=False) == sign


def _reference_pairwise_mmse(c, snr, step, log_cut):
    """The pairwise rule summed over every pair and every symbol, as a reference."""
    s = c.points
    p = c.probs
    a = math.sqrt(snr)
    logp = np.log(p)
    q = s.size
    iu, ju = np.triu_indices(q, k=1)
    dsign = s[iu] - s[ju]
    delta = np.abs(dsign)
    ad = a * delta
    pref = logp[iu] + logp[ju] + 2.0 * np.log(delta) - ad * ad / 4.0
    peak = pref + ad * ad / 8.0
    keep = peak > (peak.max() - log_cut)
    iu, ju = iu[keep], ju[keep]
    dsign, delta, ad, pref = dsign[keep], delta[keep], ad[keep], pref[keep]
    mid = a * (s[iu] + s[ju]) / 2.0
    cs = np.minimum(1.0, 2.0 / np.maximum(ad, 1e-300))
    decay = np.minimum(ad / 2.0, 1.0)
    t_half = (-decay + np.sqrt(decay * decay + 2.0 * log_cut * cs * cs)) / (cs * cs)
    t_max = float(t_half.max())
    n_nodes = max(int(math.ceil(2.0 * t_max / step)) + 1, 9)
    tau = np.linspace(-t_max, t_max, n_nodes)
    h = tau[1] - tau[0]
    t = cs[:, None] * tau[None, :]
    y = mid[:, None] + t
    expo = logp[None, None, :] - 0.5 * (y[:, :, None] - a * s[None, None, :]) ** 2
    em = expo.max(axis=2)
    w = np.exp(expo - em[:, :, None])
    z = w.sum(axis=2)
    log_density = em + np.log(z) - 0.5 * math.log(2.0 * math.pi)
    core = np.exp(pref[:, None] - t * t - math.log(2.0 * math.pi) - log_density)
    mmse = float((core.sum(axis=1) * cs).sum() * h)
    w /= z[:, :, None]
    xhat = (w * s[None, None, :]).sum(axis=2)
    x2 = (w * (s * s)[None, None, :]).sum(axis=2)
    yi = t - (a * dsign / 2.0)[:, None]
    yj = t + (a * dsign / 2.0)[:, None]
    bracket = yi * s[iu][:, None] + yj * s[ju][:, None] - (y * xhat - a * x2)
    dmmse = float(((core * bracket).sum(axis=1) * cs).sum() * h) / (2.0 * a)
    return min(mmse, 1.0), min(dmmse, 0.0)


# zero mean, unit power, and no mirror symmetry
_SKEWED = cons.Constellation(
    "discrete", np.array([-2.0, 0.0, 1.0]) / math.sqrt(1.2), np.array([0.2, 0.4, 0.4]), label="skewed3"
)


@pytest.mark.parametrize("c", [*(cons.by_name(n) for n in FINITE), _SKEWED], ids=lambda c: c.label)
@pytest.mark.parametrize("step,log_cut", [(cons._PAIR_STEP, cons._PAIR_LOG_CUT), (0.4, 40.0)])
def test_pairwise_rule_matches_all_pairs_reference(c, step, log_cut):
    # built-ins take the mirror-halved pair set, the skewed input every pair;
    # both sum posteriors over a window of symbols only
    mirrored = np.array_equal(c.points, -c.points[::-1]) and np.array_equal(c.probs, c.probs[::-1])
    assert mirrored == (c is not _SKEWED)
    checked = 0
    for snr in np.geomspace(1e-3, 1e4, 24):
        m_ref, d_ref = _reference_pairwise_mmse(c, float(snr), step, log_cut)
        if m_ref < 1e-250:
            continue
        m, d = cons._pairwise_mmse(c, float(snr), step=step, log_cut=log_cut)
        assert abs(m - m_ref) <= 1e-13 * m_ref, (snr, m, m_ref)
        assert abs(d - d_ref) <= 1e-12 * abs(d_ref), (snr, d, d_ref)
        checked += 1
    assert checked >= 12


def _allocating_pairwise_mmse(c, snr, step, log_cut, workspace=1_000_000):
    """``cons._pairwise_mmse`` as it was before its blocks ran in place, as a reference."""
    s = c.points
    p = c.probs
    if snr == 0.0:
        var = min(max(float(np.sum(p * s * s) - np.sum(p * s) ** 2), 0.0), 1.0)
        return var, -var * var
    a = math.sqrt(snr)
    logp = np.log(p)
    q = s.size
    iu, ju, wt = cons._halved(c, *cons._pairs(q))
    dsign = s[iu] - s[ju]
    delta = np.abs(dsign)
    ad = a * delta
    pref = logp[iu] + logp[ju] + 2.0 * np.log(delta) - ad * ad / 4.0
    peak = pref + ad * ad / 8.0
    keep = peak > (peak.max() - log_cut)
    iu, ju, wt = iu[keep], ju[keep], wt[keep]
    dsign, delta, ad, pref = dsign[keep], delta[keep], ad[keep], pref[keep]
    mid = a * (s[iu] + s[ju]) / 2.0
    cs = np.minimum(1.0, 2.0 / np.maximum(ad, 1e-300))
    decay = np.minimum(ad / 2.0, 1.0)
    t_half = (-decay + np.sqrt(decay * decay + 2.0 * log_cut * cs * cs)) / (cs * cs)
    t_max = float(t_half.max())
    n_nodes = max(int(math.ceil(2.0 * t_max / step)) + 1, 9)
    tau = np.linspace(-t_max, t_max, n_nodes)
    h = tau[1] - tau[0]
    t = cs[:, None] * tau[None, :]
    y = mid[:, None] + t
    sa = a * s
    k = sa[1:-1].searchsorted(y) + 1
    near = np.minimum(np.abs(y - sa[k - 1]), np.abs(y - sa[k]))
    r = np.sqrt(near * near + 2.0 * (log_cut + logp.max() - logp.min()))
    lo = sa.searchsorted(y - r)
    width = int((sa.searchsorted(y + r, side="right") - lo).max())
    lo = np.minimum(lo, q - width)
    core_sums, slope_sums = np.empty(iu.size), np.empty(iu.size)
    rows = max(1, workspace // (n_nodes * width))
    for b in range(0, iu.size, rows):
        blk = slice(b, b + rows)
        win = lo[blk, :, None] + np.arange(width)
        sw = s[win]
        expo = logp[win] - 0.5 * (y[blk, :, None] - sa[win]) ** 2
        em = expo.max(axis=2)
        expo -= em[:, :, None]
        w = np.exp(expo, out=expo)
        z = w.sum(axis=2)
        log_density = em + np.log(z) - cons._LOG_SQRT_2PI
        tb = t[blk]
        core = np.exp(pref[blk, None] - tb * tb - math.log(2.0 * math.pi) - log_density)
        core_sums[blk] = core.sum(axis=1)
        w /= z[:, :, None]
        xhat = (w * sw).sum(axis=2)
        x2 = (w * (sw * sw)).sum(axis=2)
        yi = tb - (a * dsign[blk] / 2.0)[:, None]
        yj = tb + (a * dsign[blk] / 2.0)[:, None]
        bracket = yi * s[iu[blk]][:, None] + yj * s[ju[blk]][:, None] - (y[blk] * xhat - a * x2)
        slope_sums[blk] = (core * bracket).sum(axis=1)
    mmse = float((core_sums * cs * wt).sum() * h)
    dmmse = float((slope_sums * cs * wt).sum() * h) / (2.0 * a)
    return min(mmse, 1.0), min(dmmse, 0.0)


def _allocating_gh_mmse_grid(c, snr, order):
    """``cons._gh_mmse_grid`` as it was before it ran in place, as a reference."""
    s = c.points
    logp = np.log(c.probs)
    nodes, wq = cons._gh_nodes(order)
    j, _, wt = cons._halved(c, np.arange(s.size), np.arange(s.size))
    a = np.sqrt(snr)[:, None, None, None]
    diff = (s[:, None] - s[None, j])[None, :, :, None]
    expo = logp[None, :, None, None] - 0.5 * (nodes[None, None, None, :] + a * diff) ** 2
    em = expo.max(axis=1)
    w = np.exp(expo - em[:, None])
    z = w.sum(axis=1)
    w /= z[:, None]
    xhat = (w * s[None, :, None, None]).sum(axis=1)
    m2 = (w * (s[None, :, None, None] - xhat[:, None]) ** 2).sum(axis=1)
    mmse = ((m2 * wq[None, None, :]).sum(axis=2) * (c.probs[j] * wt)[None, :]).sum(axis=1)
    d = -((m2 * m2 * wq[None, None, :]).sum(axis=2) * (c.probs[j] * wt)[None, :]).sum(axis=1)
    return np.minimum(mmse, 1.0), np.minimum(d, 0.0)


def _gh_chunked(kernel, c, snr, order, points):
    """(mmse, dmmse) bytes of ``kernel`` over ``snr`` in chunks of ``points``."""
    runs = [kernel(c, snr[k : k + points], order) for k in range(0, snr.size, points)]
    return np.concatenate([np.stack(r) for r in runs], axis=1).tobytes()


@pytest.mark.parametrize("name", FINITE)
@pytest.mark.parametrize("workspace", [cons.WORKSPACE, 1], ids=["default", "one-pair"])
def test_in_place_kernels_equal_the_allocating_ones(name, workspace):
    # each in-place step is the same IEEE operation on the same operands, and
    # no sum changes its axis or order, so not one bit may move
    c = cons.by_name(name)
    ladder = np.concatenate([[0.0, 23.9], np.geomspace(1e-3, 1e4, 14)])
    for step, log_cut in ((cons._PAIR_STEP, cons._PAIR_LOG_CUT), (0.4, 40.0)):
        for snr in ladder:
            got = cons._pairwise_mmse(c, float(snr), step, log_cut, workspace=workspace)
            want = _allocating_pairwise_mmse(c, float(snr), step, log_cut)
            assert np.array(got).tobytes() == np.array(want).tobytes(), (snr, step, got, want)
    # at one element a GH point runs one transmitted symbol at a time
    def gh(c, snr, order):
        return cons._gh_mmse_grid(c, snr, order, workspace)

    for order in (96, 192):
        points = tables._gh_points(c, order, workspace)
        reference = tables._gh_points(c, order, cons.WORKSPACE)
        assert (_gh_chunked(gh, c, ladder, order, points)
                == _gh_chunked(_allocating_gh_mmse_grid, c, ladder, order, reference)), order


def test_outer_axis_sum_keeps_numpys_last_axis_order():
    # the pairwise kernel sums its (width, pairs, nodes) blocks over the window
    # axis in the order of numpy's sum along a contiguous last axis; if a numpy
    # release changes that order, this names the helper before the table bytes move.
    # Past 128 terms numpy sums two halves, which only a window that wide reaches
    rng = np.random.default_rng(34)
    for width in [*range(1, 41), 128, 129, 200, 257]:
        shape = (width, 5, 7)
        magnitude = np.where(rng.random(shape) < 0.2, 0.0, rng.lognormal(0.0, 3.0, shape))
        x = rng.choice([-1.0, 1.0], shape) * magnitude   # signed, zeros of both signs
        x[:, 0, 0] = -0.0
        want = np.ascontiguousarray(np.moveaxis(x, 0, -1)).sum(axis=-1).tobytes()
        assert cons._sum_outer(x, np.empty_like(x)).tobytes() == want, width
        in_place = x.copy()
        assert cons._sum_outer(in_place, in_place).tobytes() == want, width


@pytest.mark.parametrize("order", [96, 192])
def test_shipped_gh_rules_are_scipys(order):
    # the shipped file fixes the table bytes: scipy's own bits may vary between
    # builds (order 96 comes from its LAPACK eigvals_banded), so a few ulps apart
    nodes, weights = cons._gh_nodes(order)
    assert nodes.shape == weights.shape == (order,)
    assert np.array_equal(nodes, -nodes[::-1]) and np.array_equal(weights, weights[::-1])
    for got, want in zip((nodes, weights), ref.gh_rule(order)):
        assert np.all(np.abs(got - want) <= 4.0 * np.spacing(np.abs(want))), order


def test_mmse_negative_snr_rejected():
    with pytest.raises(InvalidInputError):
        ref.mmse_exact(cons.bpsk(), -0.5)


# ---------------------------------------------------------------------------
# mmse derivative
# ---------------------------------------------------------------------------

def test_derivative_gaussian_closed_form():
    assert ref.mmse_derivative(cons.gaussian(), 1.0) == pytest.approx(-0.25, abs=1e-15)


def test_derivative_bpsk_at_zero_snr():
    assert ref.mmse_derivative(cons.bpsk(), 0.0) == pytest.approx(-1.0, abs=1e-15)


def test_derivative_16pam_matches_finite_difference():
    c = cons.pam(16)
    h = 1e-4
    fd = (ref.mmse_exact(c, 3.0 + h) - ref.mmse_exact(c, 3.0 - h)) / (2 * h)
    assert abs(ref.mmse_derivative(c, 3.0) - fd) < 1e-5


@pytest.mark.parametrize("name", FINITE)
def test_derivative_sign_and_fd_match_on_grid(name):
    c = cons.by_name(name)
    h = 1e-4
    for snr in np.geomspace(0.05, 20.0, 20):
        d = ref.mmse_derivative(c, float(snr))
        assert d <= 0.0
        fd = (ref.mmse_exact(c, float(snr) + h) - ref.mmse_exact(c, float(snr) - h)) / (2 * h)
        assert abs(d - fd) < 1e-5


# ---------------------------------------------------------------------------
# mutual information
# ---------------------------------------------------------------------------

def test_mi_gaussian_closed_form():
    assert ref.mutual_information(cons.gaussian(), 3.0) == pytest.approx(1.0, abs=1e-15)


def test_mi_bpsk_saturates():
    assert ref.mutual_information(cons.bpsk(), 400.0) == pytest.approx(1.0, abs=1e-6)


def test_mi_4pam_i_mmse_relation():
    # dI/dsnr in nats equals mmse/2 (centered difference, step 1e-4)
    c = cons.pam(4)
    h = 1e-4
    fd = (
        (ref.mutual_information(c, 2.0 + h) - ref.mutual_information(c, 2.0 - h))
        / (2 * h)
        * math.log(2.0)
    )
    assert abs(fd - 0.5 * ref.mmse_exact(c, 2.0)) < 1e-5


@pytest.mark.parametrize("name", FINITE)
def test_mi_bounded_by_gaussian_and_cardinality(name):
    c = cons.by_name(name)
    cap = c.max_information_bits()
    for snr in np.geomspace(0.01, 300.0, 12):
        mi = ref.mutual_information(c, float(snr))
        assert -1e-12 <= mi <= 0.5 * math.log2(1.0 + snr) + 1e-9
        assert mi <= cap + 1e-12


def test_mi_monotone_in_snr():
    c = cons.pam(4)
    vals = [ref.mutual_information(c, s) for s in np.geomspace(0.01, 100.0, 15)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# property tests on random symmetric constellations
# ---------------------------------------------------------------------------

@st.composite
def symmetric_constellations(draw):
    half = draw(
        st.lists(
            st.floats(min_value=0.05, max_value=3.0, allow_nan=False),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    pts = np.sort(np.array([-x for x in half] + half))
    if np.any(np.diff(pts) < 1e-6):
        pts = np.arange(-len(half), len(half) + 1e-9)
        pts = pts[pts != 0] if len(half) > 1 else np.array([-1.0, 1.0])
    probs = np.full(pts.size, 1.0 / pts.size)
    pts = pts / math.sqrt(np.sum(probs * pts**2))
    return cons.Constellation("discrete", pts, probs, label="hyp")


@settings(max_examples=25, deadline=None)
@given(symmetric_constellations(), st.floats(min_value=0.0, max_value=50.0))
def test_mmse_properties_random_constellations(c, snr):
    m = ref.mmse_exact(c, snr, check=False)
    assert 0.0 <= m <= 1.0
    assert ref.mmse_exact(c, 0.0) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    symmetric_constellations(),
    st.floats(min_value=-20.0, max_value=20.0),
    st.floats(min_value=0.0, max_value=100.0),
)
def test_conditional_mean_bounded(c, y, snr):
    v = ref.conditional_mean(c, y, snr)
    assert c.points.min() - 1e-12 <= v <= c.points.max() + 1e-12
