"""Command-line entry point.

Subcommands:

* ``sweep-users``   Monte Carlo sweep over users per cell, CSV out.
* ``sweep-radius``  Monte Carlo sweep over cell radius, CSV out.
* ``solve``         run the solvers on one instance JSON file.

Option precedence for experiment knobs: command-line flag, then the
--config JSON file (keys: the command's own flags, underscores for
dashes), then the MCMS_SEED environment variable (seed only), then
built-in defaults.  A count that is not a whole number, more than 2**32
sub-frames, a radius or rate that is not a finite positive number, a
radius whose layout overflows the float range, a non-boolean
``deterministic_fading``, a config value that is JSON null (the error
names its keys) or a negative ``solve --budget`` is an error with exit
code 2, never coerced; so is an ``--out``, ``<out>.meta.json`` or
``--dump-raw`` path that is a directory or whose directory does not
exist, and a ``--dump-raw`` path that names the CSV or its
``.meta.json`` sidecar, before any sampling.  A sweep or instance too
large to allocate, and a config or instance file that is not valid
JSON, are errors with exit code 2 too; the latter name the file.  Sweep
values come from ``--values`` as comma-separated numbers, or from the
config file's ``values`` as such a string or a JSON list of numbers,
and only from there: the swept knob has no flag, so its config key is
unknown.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import os
import sys

from .coverage import whole_number
from .harness import (
    SWEEP_AXES,
    ExperimentConfig,
    load_instance,
    run_sweep,
    write_csv,
    write_meta,
    write_raw_csv,
)
from .scenario import ChannelParams
from .solvers import (
    EXACT_BUDGET,
    EnumerationBudgetError,
    solve_exact,
    solve_greedy,
    solve_sc_baseline,
)

# Each sweep knob's flag dest, which is also its config-file key: its
# ExperimentConfig field and its flag's type and other argparse keywords.
_FIELDS = {
    "seed": ("seed", int, dict(help="base RNG seed (default 0)")),
    "trials": ("trials", int, dict(
        help="independent user placements per point (default 20)")),
    "subframes": ("subframes", int, dict(
        help="fading draws per placement (default 100)")),
    "prbs": ("num_prbs", int, dict(help="PRBs per cell (default 4)")),
    "rate": ("stream_rate_bps", float, dict(
        help="multicast stream rate in bps")),
    "cells": ("num_cells", int, dict(choices=(1, 7, 19),
                                     help="number of cells (default 7)")),
    "radius": ("radius_m", float, dict(
        help="fixed cell radius in meters (default 300)")),
    "users_per_cell": ("users_per_cell", int, dict(
        help="fixed users per cell (default 175)")),
}


def _knobs(axis: str) -> dict:
    """The knobs of the command that sweeps ``axis``: all but its own."""
    varied, _, _ = SWEEP_AXES[axis]
    return {key: knob for key, knob in _FIELDS.items() if knob[0] != varied}


def _load_config_file(path: str, axis: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ValueError(f"config file {path} is not valid JSON: {exc}"
                             ) from exc
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    known = {*_knobs(axis), "deterministic_fading", "values", "out"}
    unknown = set(data) - known
    if unknown:
        raise ValueError(
            f"unknown config keys {sorted(unknown)}; "
            f"known keys: {sorted(known)}"
        )
    nulls = sorted(key for key, value in data.items() if value is None)
    if nulls:
        raise ValueError(f"config file {path} sets {nulls} to null; leave "
                         f"a key out to take its default")
    return data


def _resolve(args, axis: str) -> tuple[ExperimentConfig, str | None,
                                       list | None]:
    """Merge flags, config file, environment and defaults.

    Returns (config, out path, sweep values or None for the default).
    """
    cfg = _load_config_file(args.config, axis) if args.config else {}
    fields = {}
    for key, (field, kind, _) in _knobs(axis).items():
        value = getattr(args, key)
        if value is None:
            value = cfg.get(key)
        if value is None and key == "seed" and "MCMS_SEED" in os.environ:
            env = os.environ["MCMS_SEED"]
            try:
                value = int(env)
            except ValueError:
                raise ValueError(f"MCMS_SEED must be an integer, got {env!r}")
        if value is None:
            continue
        # ExperimentConfig checks radius and rate itself.
        fields[field] = value if kind is float else whole_number(value, key)

    deterministic = cfg.get("deterministic_fading", False)
    if not isinstance(deterministic, bool):
        raise ValueError("deterministic_fading must be true or false, "
                         f"got {deterministic!r}")
    if args.deterministic_fading or deterministic:
        fields["channel"] = ChannelParams(fading="none")
    config = ExperimentConfig(**fields)
    out = args.out if args.out is not None else cfg.get("out")
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
    for key, (_, kind, flag) in _knobs(axis).items():
        p.add_argument("--" + key.replace("_", "-"), type=kind, **flag)
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
    _, _, convert = SWEEP_AXES[axis]
    try:
        return [convert(v) for v in vals]
    except ValueError:  # a fraction on the users axis
        raise ValueError(f"{name} on the {axis} axis must be whole numbers: "
                         f"{values!r}") from None


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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcms",
        description="Multicast coverage solvers and Monte Carlo sweeps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for axis, what in (("users", "users per cell"), ("radius", "cell radius")):
        p = sub.add_parser(f"sweep-{axis}",
                           help=f"sweep {what}, write mean unserved CSV")
        _add_sweep_flags(p, axis)
        p.set_defaults(func=lambda a, axis=axis: _cmd_sweep(a, axis))

    p = sub.add_parser("solve", help="solve one instance JSON file")
    p.add_argument("instance", help="path to instance JSON")
    p.add_argument("--skip-exact", action="store_true",
                   help="report only greedy and SC results")
    p.add_argument("--budget", type=int, default=EXACT_BUDGET,
                   help="max allocations the exact solver may enumerate")
    p.set_defaults(func=_cmd_solve)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
