#!/usr/bin/env python3
"""Mutual information versus total harvested energy, averaged over seeds.

Reproduces the headline comparison: the optimal offline water-flowing
allocation against the causal online algorithm, both pool-by-pool baselines,
and the Gaussian-design (DWF) allocation rescored under the true
constellations.  Writes one CSV of per-seed curves and prints the seed-mean
table.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mercuryflow import evaluation as ev

STRATEGIES = ev.SWEEP_STRATEGIES


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--n", type=int, default=100, help="channel accesses")
    p.add_argument("--j", type=int, default=40, help="energy packets")
    p.add_argument("--k", type=int, default=4, help="streams")
    p.add_argument("--ts", type=float, default=0.01, help="symbol duration, s")
    p.add_argument("--window", type=int, default=11, help="online flowing window")
    p.add_argument("--block-len", type=int, default=10, help="gain coherence block")
    p.add_argument("--seeds", type=int, default=5, help="number of seeds to average")
    p.add_argument("--emin", type=float, default=0.05)
    p.add_argument("--emax", type=float, default=50.0)
    p.add_argument("--points", type=int, default=10)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default="results")
    args = p.parse_args()

    grid = np.geomspace(args.emin, args.emax, args.points)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    acc = {s: np.zeros(grid.size) for s in STRATEGIES}
    rows = ["seed,energy,strategy,mi_bits"]
    for seed in range(args.seeds):
        params = dict(
            n=args.n, k=args.k, ts=args.ts, j=args.j,
            constellations=("bpsk", "4pam", "16pam", "32pam")[: args.k],
            gain_model="block_random", block_len=args.block_len, seed=seed,
        )
        res = ev.sweep_energy(params, grid, strategies=STRATEGIES,
                              f_w=args.window, jobs=args.jobs)
        for name in STRATEGIES:
            acc[name] += res.curves[name]
            for e, mi in zip(grid, res.curves[name]):
                rows.append(f"{seed},{float(e)!r},{name},{float(mi)!r}")
        print(f"seed {seed} done")
    (out / "energy_sweep.csv").write_text("\n".join(rows) + "\n")

    header = "energy_J " + " ".join(f"{s:>10}" for s in STRATEGIES)
    print("\nseed-mean mutual information (bits per frame)")
    print(header)
    for i, e in enumerate(grid):
        vals = " ".join(f"{acc[s][i] / args.seeds:10.3f}" for s in STRATEGIES)
        print(f"{e:9.3f} {vals}")
    print(f"\nwrote {out / 'energy_sweep.csv'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
