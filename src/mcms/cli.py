"""Command-line entry point.

Subcommands:

* ``sweep-users``   Monte Carlo sweep over users per cell, CSV out.
* ``sweep-radius``  Monte Carlo sweep over cell radius, CSV out.
* ``solve``         run the solvers on one instance JSON file.
* ``oracle-check``  audit the greedy against the exact optimum on
  random instances, holding it to ``greedy_bound`` (half the optimum),
  and report ratio statistics.

Option precedence for experiment knobs: command-line flag, then the
--config JSON file (keys named like the flags, underscores for
dashes), then the MCMS_SEED environment variable (seed only), then
built-in defaults.  A count that is not a whole number, a radius or
rate that is not a finite positive number, a non-boolean
``deterministic_fading``, a negative ``solve --budget`` or an
out-of-range ``oracle-check`` argument is an error with exit code 2,
never coerced; so is an ``--out``, ``<out>.meta.json`` or
``--dump-raw`` path that is a directory or whose directory does not
exist, and a ``--dump-raw`` path that names the CSV or its
``.meta.json`` sidecar, before any sampling.  A sweep or instance too
large to allocate is an error with exit code 2 too.
Sweep values come from ``--values`` as comma-separated numbers, or from
the config file's ``values`` as such a string or a JSON list of
numbers.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import os
import sys

import numpy as np

from .coverage import AllocationError, InstanceError, whole_number
from .harness import (
    ExperimentConfig,
    load_instance,
    random_instance,
    run_sweep,
    write_csv,
    write_meta,
    write_raw_csv,
)
from .scenario import ChannelParams
from .solvers import (
    EXACT_BUDGET,
    EnumerationBudgetError,
    greedy_bound,
    solve_exact,
    solve_greedy,
    solve_sc_baseline,
)

# config-file keys mirror the sweep flags
_CONFIG_KEYS = {
    "seed", "trials", "subframes", "prbs", "rate", "cells", "radius",
    "users_per_cell", "deterministic_fading", "values", "out",
}


def _load_config_file(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ValueError(
            f"unknown config keys {sorted(unknown)}; "
            f"known keys: {sorted(_CONFIG_KEYS)}"
        )
    return data


def _resolve(args, axis: str) -> tuple[ExperimentConfig, str | None,
                                       list | None]:
    """Merge flags, config file, environment and defaults.

    Returns (config, out path, sweep values or None for the default).
    """
    cfg = _load_config_file(args.config) if args.config else {}

    def pick(flag_value, key):
        return flag_value if flag_value is not None else cfg.get(key)

    def pick_count(flag_value, key):
        value = pick(flag_value, key)
        return None if value is None else whole_number(value, key)

    seed = pick_count(args.seed, "seed")
    if seed is None:
        env = os.environ.get("MCMS_SEED")
        if env is not None:
            try:
                seed = int(env)
            except ValueError:
                raise ValueError(f"MCMS_SEED must be an integer, got {env!r}")

    deterministic = cfg.get("deterministic_fading", False)
    if not isinstance(deterministic, bool):
        raise ValueError("deterministic_fading must be true or false, "
                         f"got {deterministic!r}")
    fields = {
        "num_cells": pick_count(args.cells, "cells"),
        "radius_m": pick(getattr(args, "radius", None), "radius"),
        "users_per_cell": pick_count(getattr(args, "users_per_cell", None),
                                     "users_per_cell"),
        "num_prbs": pick_count(args.prbs, "prbs"),
        "subframes": pick_count(args.subframes, "subframes"),
        "trials": pick_count(args.trials, "trials"),
        "stream_rate_bps": pick(args.rate, "rate"),
        "channel": (ChannelParams(fading="none")
                    if args.deterministic_fading or deterministic else None),
        "seed": seed,
    }
    config = ExperimentConfig(
        **{k: v for k, v in fields.items() if v is not None}
    )
    out = pick(args.out, "out")
    if out is not None and not isinstance(out, str):
        raise ValueError(f"out must be a path string, got {out!r}")
    if args.values is not None:
        values = _parse_values(args.values, axis)
    else:
        values = _parse_values(cfg.get("values"), axis, "values")
    return config, out, values


def _add_sweep_flags(p: argparse.ArgumentParser, axis: str) -> None:
    p.add_argument("--out", help="output CSV path")
    p.add_argument("--values",
                   help="comma-separated sweep values (default: built-in grid)")
    p.add_argument("--seed", type=int, help="base RNG seed (default 0)")
    p.add_argument("--trials", type=int,
                   help="independent user placements per point (default 20)")
    p.add_argument("--subframes", type=int,
                   help="fading draws per placement (default 100)")
    p.add_argument("--prbs", type=int, help="PRBs per cell (default 4)")
    p.add_argument("--rate", type=float,
                   help="multicast stream rate in bps")
    p.add_argument("--cells", type=int, choices=(1, 7, 19),
                   help="number of cells (default 7)")
    if axis == "users":
        p.add_argument("--radius", type=float,
                       help="fixed cell radius in meters (default 300)")
    else:
        p.add_argument("--users-per-cell", type=int, dest="users_per_cell",
                       help="fixed users per cell (default 175)")
    p.add_argument("--exact", action="store_true",
                   help="also report the optimum, certified by bounds or "
                        "enumerated (adds EXACT column)")
    p.add_argument("--deterministic-fading", action="store_true",
                   help="disable fading; use mean SNR only")
    p.add_argument("--dump-raw", metavar="PATH",
                   help="also write per-subframe samples to PATH")
    p.add_argument("--config", help="JSON file with experiment knobs")


def _parse_values(values, axis: str, name: str = "--values"):
    """Sweep values from the flag's comma-separated string, or from the
    config file's string or JSON list of numbers; errors name ``name``."""
    if values is None:
        return None
    if isinstance(values, str):
        try:
            vals = [float(v) for v in values.split(",") if v.strip()]
        except ValueError:
            raise ValueError(
                f"{name} must be comma-separated numbers: {values!r}")
    elif isinstance(values, list):
        if not all(isinstance(v, numbers.Real) and not isinstance(v, bool)
                   for v in values):
            raise ValueError(f"{name} must be a list of numbers: {values!r}")
        try:
            vals = [float(v) for v in values]
        except OverflowError:  # a JSON integer beyond the float range
            raise ValueError(f"{name} must be finite numbers: {values!r}")
    else:
        raise ValueError(f"{name} must be a list of numbers or a "
                         f"comma-separated string: {values!r}")
    if not vals:
        raise ValueError(f"{name} is empty")
    if not all(math.isfinite(v) for v in vals):
        raise ValueError(f"{name} must be finite numbers: {values!r}")
    if axis == "users":
        if not all(v.is_integer() for v in vals):
            raise ValueError(
                f"{name} on the users axis must be whole numbers: {values!r}")
        vals = [int(v) for v in vals]
    return vals


def _cmd_sweep(args, axis: str) -> int:
    config, out, values = _resolve(args, axis)
    if out is None:
        raise ValueError("--out is required (flag or config file)")
    # Fail before sampling, not after a sweep that cannot be written.
    for flag, path in (("--out", out), ("--out", out + ".meta.json"),
                       ("--dump-raw", args.dump_raw)):
        if path is None:
            continue
        path = os.path.abspath(path)
        if not os.path.isdir(os.path.dirname(path)):
            raise ValueError(f"{flag} {path!r}: no such directory "
                             f"{os.path.dirname(path)!r}")
        if os.path.isdir(path):
            raise ValueError(f"{flag} {path!r} is a directory")
    if args.dump_raw and os.path.realpath(args.dump_raw) in (
            os.path.realpath(out), os.path.realpath(out + ".meta.json")):
        raise ValueError(f"--dump-raw {args.dump_raw!r} would overwrite the "
                         f"sweep's CSV {out!r} or its .meta.json")
    try:
        result = run_sweep(
            config,
            axis,
            values=values,
            with_exact=args.exact,
            progress=lambda line: print(line, file=sys.stderr),
        )
    except EnumerationBudgetError as exc:
        raise ValueError(
            f"--exact cannot run with {config.num_cells} cells and "
            f"{config.num_prbs} PRBs: {exc}; use fewer cells or PRBs, "
            f"or drop --exact"
        ) from exc
    write_csv(result, out)
    write_meta(result, out)
    if args.dump_raw:
        write_raw_csv(result, args.dump_raw)
    print(f"wrote {out} ({len(result.values)} points)")
    return 0


def _fmt_alloc(alloc) -> str:
    return ",".join(str(j) for j in alloc)


def _cmd_solve(args) -> int:
    if args.budget < 0:
        raise ValueError(f"--budget must be >= 0, got {args.budget}")
    instance = load_instance(args.instance)
    greedy = solve_greedy(instance)
    print(f"greedy={greedy.objective} alloc={_fmt_alloc(greedy.alloc)}")
    sc = solve_sc_baseline(instance)
    print(f"sc={sc.objective} alloc={_fmt_alloc(sc.alloc)}")
    if args.skip_exact:
        return 0
    try:
        exact = solve_exact(instance, budget=args.budget)
    except EnumerationBudgetError as exc:
        print(f"exact=skipped (needs {exc.num_allocations} evaluations, "
              f"budget {exc.budget})")
        return 0
    print(f"exact={exact.objective} alloc={_fmt_alloc(exact.alloc)}")
    return 0


def _cmd_oracle_check(args) -> int:
    for flag, value, least in (("--trials", args.trials, 1),
                               ("--seed", args.seed, 0),
                               ("--users", args.users, 0),
                               ("--cells", args.cells, 1),
                               ("--prbs", args.prbs, 1)):
        if value < least:
            raise ValueError(f"{flag} must be >= {least}, got {value}")
    if not 0.0 <= args.density <= 1.0:  # also rejects nan
        raise ValueError(
            f"--density must be a number in [0, 1], got {args.density}")
    ratios = []
    violations = 0
    for i in range(args.trials):
        rng = np.random.default_rng(
            np.random.SeedSequence(args.seed, spawn_key=(i,))
        )
        instance = random_instance(
            rng,
            num_users=args.users,
            num_cells=args.cells,
            num_prbs=args.prbs,
            density=args.density,
        )
        greedy = solve_greedy(instance)
        try:
            exact = solve_exact(instance)
        except EnumerationBudgetError as exc:
            raise ValueError(
                f"oracle-check cannot run with {args.cells} cells and "
                f"{args.prbs} PRBs: {exc}") from exc
        ratio = (greedy.objective / exact.objective
                 if exact.objective else 1.0)
        ratios.append(ratio)
        ok = (exact.objective >= greedy.objective
              and greedy.objective >= greedy_bound(exact.objective))
        if not ok:
            violations += 1
            print(f"trial {i}: VIOLATION greedy={greedy.objective} "
                  f"exact={exact.objective} "
                  f"bound={greedy_bound(exact.objective)}")
        elif args.verbose:
            print(f"trial {i}: greedy={greedy.objective} "
                  f"exact={exact.objective} ratio={ratio:.4f}")
    print(f"oracle-check: trials={args.trials} violations={violations} "
          f"min_ratio={min(ratios):.4f} mean_ratio={np.mean(ratios):.4f}")
    return 1 if violations else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcms",
        description="Multicast coverage solvers and Monte Carlo sweeps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep-users",
                       help="sweep users per cell, write mean unserved CSV")
    _add_sweep_flags(p, "users")
    p.set_defaults(func=lambda a: _cmd_sweep(a, "users"))

    p = sub.add_parser("sweep-radius",
                       help="sweep cell radius, write mean unserved CSV")
    _add_sweep_flags(p, "radius")
    p.set_defaults(func=lambda a: _cmd_sweep(a, "radius"))

    p = sub.add_parser("solve", help="solve one instance JSON file")
    p.add_argument("instance", help="path to instance JSON")
    p.add_argument("--skip-exact", action="store_true",
                   help="report only greedy and SC results")
    p.add_argument("--budget", type=int, default=EXACT_BUDGET,
                   help="max allocations the exact solver may enumerate")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("oracle-check",
                       help="compare greedy vs brute force on random instances")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--users", type=int, default=30)
    p.add_argument("--cells", type=int, default=4)
    p.add_argument("--prbs", type=int, default=3)
    p.add_argument("--density", type=float, default=0.3)
    p.add_argument("--verbose", action="store_true",
                   help="print every trial, not only violations")
    p.set_defaults(func=_cmd_oracle_check)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InstanceError, AllocationError, ValueError, OSError,
            json.JSONDecodeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
