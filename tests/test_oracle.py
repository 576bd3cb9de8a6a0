"""Optimality checked by a generic constrained optimizer that shares no code with the solver.

scipy's SLSQP maximizes the total mutual information ``sum mi_k(lam * p)`` over
the powers ``p >= 0`` under the N cumulative energy-causality rows, with the
I-MMSE gradient ``lam * mmse(lam * p) / (2 ln 2)``.  It reads the same mmse
tables as the package, and nothing else of it: no pools, no water levels, no
epoch solver.  NDA and FSA must reach its optimum, and no baseline may beat it.

Measured over these 150 draws: SLSQP falls at most 2.9e-10 relative MI short
of NDA, and 4 draws report no success, each within 1.3e-12 of NDA; where it
succeeds, the powers agree to 1.9e-6 of the largest power (16pam at 18 J, on
the flat top of its mi curve) and to 3.4e-7 elsewhere.
"""

import math

import numpy as np
from scipy.optimize import minimize

from mercuryflow import evaluation as ev
from mercuryflow import offline as off
from mercuryflow import scenario as scn

NAMES = ("bpsk", "4pam", "16pam", "gaussian")
MI_RTOL = 1e-9       # relative MI by which SLSQP may fall short of the optimum
POWER_RTOL = 5e-6    # of the largest power, where SLSQP reports success


def _draw(seed):
    """A seeded ``generate`` scenario: N 2-6, K 1-2, 0.1-20 J, ts 1."""
    rng = np.random.default_rng([28, seed])
    n = int(rng.integers(2, 7))
    k = int(rng.integers(1, 3))
    return scn.generate(n=n, k=k, ts=1.0, j=int(rng.integers(1, n + 1)),
                        total_energy=math.exp(rng.uniform(math.log(0.1), math.log(20.0))),
                        constellations=tuple(NAMES[i] for i in rng.integers(0, 4, size=k)),
                        gain_model="block_random", block_len=int(rng.integers(1, 4)),
                        seed=int(rng.integers(1 << 30)))


def _oracle(s, tables):
    """SLSQP's (success, MI, (K, N) powers) for scenario ``s``; the variables run access-major."""
    n, k, lam = s.n, s.k, s.gains
    harvested = np.zeros(n)
    for access, joules in s.arrivals:
        harvested[access - 1:] += joules
    rows = s.ts * np.kron(np.tril(np.ones((n, n))), np.ones((1, k)))   # spent up to access n

    def snr(x):
        return lam * np.maximum(x, 0.0).reshape(n, k).T

    def mi(x):
        return sum(float(np.sum(t.mi_at(row))) for t, row in zip(tables, snr(x)))

    def grad(x):
        mmse = [t.mmse_at(np.minimum(row, t.snr_top)) for t, row in zip(tables, snr(x))]
        return (lam * np.array(mmse) / (2.0 * math.log(2.0))).T.ravel()

    # start feasible: each packet spread evenly up to the next arrival
    x0 = np.zeros((n, k))
    ends = [access - 1 for access, _ in s.arrivals[1:]] + [n]
    for (access, joules), end in zip(s.arrivals, ends):
        x0[access - 1:end] = joules / (s.ts * k * (end - access + 1))
    res = minimize(lambda x: -mi(x), x0.ravel(), jac=lambda x: -grad(x), method="SLSQP",
                   bounds=[(0.0, None)] * (n * k),
                   constraints=[{"type": "ineq", "fun": lambda x: harvested - rows @ x,
                                 "jac": lambda x: -rows}],
                   options={"ftol": 1e-15, "maxiter": 500})
    return res.success, mi(res.x), np.maximum(res.x, 0.0).reshape(n, k).T


def test_slsqp_finds_no_better_allocation(builtin_tables):
    for seed in range(150):
        s = _draw(seed)
        tabs = off.stream_tables(s)
        ok, best, powers = _oracle(s, tabs)
        for name in ("nda", "fsa", "online", "pbp-hgwf", "dwf"):
            a = ev.run_strategy(s, name, f_w=2, tables=tabs)
            mi = ev.evaluate_mi(s, a, tables=tabs)
            assert mi <= best * (1.0 + MI_RTOL), (seed, name)
            if name in ("nda", "fsa"):
                assert mi >= best * (1.0 - MI_RTOL), (seed, name)
                if ok:
                    assert np.max(np.abs(a.powers - powers)) <= POWER_RTOL * a.powers.max(), \
                        (seed, name)
