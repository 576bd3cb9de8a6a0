"""Command-line entry point.

Subcommands::

    tables      build mmse tables and write their (snr, mmse, mi) CSVs
    run         solve one scenario with a chosen algorithm, export the
                allocation CSV, print a one-line summary
    sweep       MI versus total harvested energy for several strategies
    complexity  solver call-count ensemble over seeded scenarios
    trace       per-access inverse-gain / mercury / water levels CSV
    verify      re-check a stored allocation against the KKT conditions

Exit codes, read from each error class's ``exit_code``: 0 ok, 2 config
error, 3 numeric/range error, 4 verification failure.  Identical flags and
seed produce byte-identical output files.  Energy in J, ts in s, gains linear.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import evaluation, offline, online, scenario as scn, tables as tbl
from .constellations import BUILTIN_NAMES, by_name
from .errors import InvalidInputError, MercuryflowError, _integer

ALGORITHMS = ("nda", "fsa", "online", "dwf", "pbp-wf", "pbp-hgwf")


def _fail(code: int, message: str) -> int:
    print(f"error code={code} message={json.dumps(message)}", file=sys.stderr)
    return code


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_scenario(args) -> scn.Scenario:
    doc = _load_json(args.config)
    if args.seed is not None:
        doc["seed"] = args.seed
    return scn.loads(json.dumps(doc))


def _load_json(path) -> dict:
    return scn._json_object(Path(path).read_text(encoding="utf-8"))


def _list_of(doc: dict, key: str, kind, where: str = "") -> list:
    """A config list field whose every entry is a ``kind``, else SchemaError."""
    return [scn._require({key: v}, key, kind, where) for v in scn._require(doc, key, list, where)]


def _params(doc: dict, supplied: tuple[str, ...], optional: tuple[str, ...] = ()) -> dict:
    """A config's ``params``: generate() arguments other than ``supplied``.

    Each has generate()'s annotated type (``constellations``: a list of names), and each
    without a default is given unless ``optional``; else SchemaError naming ``params.<key>``.
    """
    params = scn._require(doc, "params", dict)
    args = scn._generate_args(params, supplied, optional)
    return {
        name: _list_of(params, name, str, "params") if name == "constellations"
        else scn._require(params, name, arg.annotation, "params")
        for name, arg in args.items() if name in params
    }


def cmd_tables(args) -> int:
    out = _out_dir(args)
    names = [s.strip() for s in args.constellations.split(",") if s.strip()]
    if not names:
        raise InvalidInputError("no constellation names given")
    for name in names:
        tab = tbl.table_for(by_name(name), snr_max=args.snr_max, n_points=args.n_points)
        path = out / f"table_{tab.label}.csv"
        tab.to_csv(path)
        print(
            f"table constellation={tab.label} points={tab.snr_grid.size} "
            f"snr_top={tab.snr_top!r} file={path}"
        )
    return 0


def cmd_run(args) -> int:
    s = _load_scenario(args)
    alloc = evaluation.run_strategy(s, args.alg, f_w=args.window)   # checks before any table
    mi = evaluation.evaluate_mi(s, alloc)
    if args.alg in ("nda", "fsa"):
        ok = offline.kkt_verify(s, alloc).passed
    else:
        ok, _ = online.causal_ecc_check(s, alloc)
    out = _out_dir(args)
    path = out / f"allocation_{args.alg}.csv"
    offline.allocation_csv(s, alloc, path)
    levels = alloc.pool_water_levels
    levels_txt = (
        "[" + ",".join(f"{float(w)!r}" for w in levels) + "]" if np.all(np.isfinite(levels)) else "n/a"
    )
    print(
        f"run alg={args.alg} mi_bits={mi!r} hg_calls={alloc.stats.hg_calls} "
        f"kkt_pass={'true' if ok else 'false'} water_levels={levels_txt} file={path}"
    )
    return 0


def cmd_sweep(args) -> int:
    doc = _load_json(args.config)
    params = _params(doc, supplied=("total_energy",))
    if args.seed is not None:
        params["seed"] = args.seed
    grid = _list_of(doc, "energy_grid", float)
    strategies = (_list_of(doc, "strategies", str) if "strategies" in doc
                  else evaluation.SWEEP_STRATEGIES)
    _integer(args.jobs, "jobs")   # before f_w, as sweep_energy checks them
    # the online strategy needs its window, so a sweep of it needs the field
    f_w = scn._require(doc, "f_w", int) if "f_w" in doc or "online" in strategies else None
    result = evaluation.sweep_energy(params, grid, strategies, f_w=f_w, jobs=args.jobs)
    out = _out_dir(args)
    path = out / "sweep.csv"
    evaluation.sweep_csv(result, path)
    print(f"sweep points={result.energies.size} strategies={len(result.curves)} file={path}")
    return 0


def cmd_complexity(args) -> int:
    doc = _load_json(args.config)
    j_grid, runs = _list_of(doc, "j_grid", int), scn._require(doc, "runs", int)
    base_seed = scn._require(doc, "base_seed", int) if "base_seed" in doc else 1000
    ens = evaluation.complexity_ensemble(
        j_grid,
        runs,
        params=_params(doc, supplied=("j", "seed"), optional=("n",)) if "params" in doc else None,
        base_seed=base_seed if args.seed is None else args.seed,
        jobs=args.jobs,
    )
    out = _out_dir(args)
    path = out / "complexity.csv"
    evaluation.complexity_csv(ens, path)
    print(
        f"complexity j_grid={list(ens.j_values)} fitted_q={ens.fitted_q!r} "
        f"fitted_p={ens.fitted_p!r} bounds_ok={'true' if ens.bounds_ok() else 'false'} "
        f"file={path}"
    )
    return 0


def cmd_trace(args) -> int:
    s = _load_scenario(args)
    alloc = evaluation.run_strategy(s, args.alg, f_w=args.window)   # checks before any table
    out = _out_dir(args)
    path = out / "trace.csv"
    evaluation.trace_csv(s, alloc, path_or_buf=path)
    print(f"trace alg={args.alg} accesses={s.n} streams={s.k} file={path}")
    return 0


def cmd_verify(args) -> int:
    s = _load_scenario(args)
    alloc = offline.allocation_from_csv(s, Path(args.allocation).read_text(encoding="utf-8"))
    report = offline.kkt_verify(s, alloc, tol=args.tol)
    print(
        f"verify stationarity={'pass' if report.stationarity_ok else 'fail'} "
        f"ecc={'pass' if report.ecc_ok else 'fail'} "
        f"terminal={'pass' if report.terminal_ok else 'fail'} "
        f"monotone={'pass' if report.monotone_levels_ok else 'fail'} "
        f"empty_battery={'pass' if report.empty_battery_changes_ok else 'fail'} "
        f"max_residual={report.stationarity_max_residual!r}"
    )
    for msg in report.messages:
        print(f"  note: {msg}")
    return 0 if report.passed else 4


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mercuryflow",
        description="Power allocation for an energy-harvesting transmitter "
        "over parallel Gaussian streams with arbitrary input constellations.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True, help="JSON config path")
        sp.add_argument("--seed", type=int, default=None, help="override the config seed")
        sp.add_argument("--out", default=".", help="output directory")

    sp = sub.add_parser("tables", help="build and persist mmse tables")
    sp.add_argument("--constellations", default=",".join(BUILTIN_NAMES))
    sp.add_argument("--snr-max", type=float, default=tbl.DEFAULT_SNR_MAX)
    sp.add_argument("--n-points", type=int, default=tbl.DEFAULT_N_POINTS)
    sp.add_argument("--out", default=".", help="output directory")
    sp.set_defaults(func=cmd_tables)

    sp = sub.add_parser("run", help="solve one scenario")
    sp.add_argument("--alg", required=True, choices=ALGORITHMS)
    sp.add_argument("--window", type=int, default=None, help="flowing window (online)")
    common(sp)
    sp.set_defaults(func=cmd_run)

    sp = sub.add_parser("sweep", help="MI versus total harvested energy")
    sp.add_argument("--jobs", type=int, default=1)
    common(sp)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("complexity", help="solver call-count ensembles")
    sp.add_argument("--jobs", type=int, default=1)
    common(sp)
    sp.set_defaults(func=cmd_complexity)

    sp = sub.add_parser("trace", help="per-access level trace CSV")
    sp.add_argument("--alg", default="nda", choices=ALGORITHMS)
    sp.add_argument("--window", type=int, default=None)
    common(sp)
    sp.set_defaults(func=cmd_trace)

    sp = sub.add_parser("verify", help="KKT-check a stored allocation")
    sp.add_argument("--allocation", required=True, help="allocation CSV path")
    sp.add_argument("--tol", type=float, default=1e-7)
    common(sp)
    sp.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, UnicodeDecodeError) as exc:
        return _fail(2, str(exc))
    except MercuryflowError as exc:
        return _fail(exc.exit_code, str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
