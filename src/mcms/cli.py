"""Command-line entry point.

Subcommands:

* ``sweep-users``   Monte Carlo sweep over users per cell, CSV out.
* ``sweep-radius``  Monte Carlo sweep over cell radius, CSV out.
* ``solve``         run the solvers on one instance JSON file.

Each experiment knob comes from its flag, or else from the
``ExperimentConfig`` default.  A count that is not a whole number, more
than 2**32 sub-frames, a negative seed, a radius or rate that is not a
finite positive number, a radius whose layout overflows the float range
or a negative ``solve --budget`` is an error with exit code 2, never
coerced; so is an ``--out``, ``<out>.meta.json`` or ``--dump-raw`` path
that is a directory or whose directory does not exist, and a
``--dump-raw`` path that names the CSV or its ``.meta.json`` sidecar,
before any sampling.  A sweep or instance too large to allocate, and an
instance file that is not valid JSON, are errors with exit code 2 too;
the latter names the file.  Sweep values come from ``--values`` as
comma-separated numbers, and only from there: the swept knob has no
flag.  `run_sweep` checks them, and its error names the knob's
``ExperimentConfig`` field.
"""

from __future__ import annotations

import argparse
import os
import sys

from .harness import (
    SWEEP_AXES,
    ExperimentConfig,
    load_instance,
    run_sweep,
    write_csv,
    write_meta,
    write_raw_csv,
)
from .scenario import CELL_COUNTS, ChannelParams
from .solvers import (
    EXACT_BUDGET,
    EnumerationBudgetError,
    solve_exact,
    solve_greedy,
    solve_sc_baseline,
)

# Each sweep knob's flag dest: its ExperimentConfig field, whose default
# is the flag's, and its flag's type and help.
_FIELDS = {
    "seed": ("seed", int, "base RNG seed"),
    "trials": ("trials", int, "independent user placements per point"),
    "subframes": ("subframes", int, "fading draws per placement"),
    "prbs": ("num_prbs", int, "PRBs per cell"),
    "rate": ("stream_rate_bps", float, "multicast stream rate in bps"),
    "cells": ("num_cells", int, "number of cells"),
    "radius": ("radius_m", float, "fixed cell radius in meters"),
    "users_per_cell": ("users_per_cell", int, "fixed users per cell"),
}


def _knobs(axis: str) -> dict:
    """The knobs of the command that sweeps ``axis``: all but its own."""
    varied, _, _ = SWEEP_AXES[axis]
    return {key: knob for key, knob in _FIELDS.items() if knob[0] != varied}


def _add_sweep_flags(p: argparse.ArgumentParser, axis: str) -> None:
    _, grid, _ = SWEEP_AXES[axis]
    p.add_argument("--out", help="output CSV path")
    p.add_argument("--values", help="comma-separated sweep values (default "
                                    + ",".join(map(str, grid)) + ")")
    for key, (field, kind, text) in _knobs(axis).items():
        p.add_argument("--" + key.replace("_", "-"), type=kind,
                       default=getattr(ExperimentConfig, field),
                       choices=CELL_COUNTS if field == "num_cells" else None,
                       help=text + " (default %(default)s)")
    p.add_argument("--exact", action="store_true",
                   help="also report the optimum, certified by bounds or "
                        "enumerated (adds EXACT column)")
    p.add_argument("--deterministic-fading", action="store_true",
                   help="disable fading; use mean SNR only")
    p.add_argument("--dump-raw", metavar="PATH",
                   help="also write per-subframe samples to PATH")


def _parse_values(values: str | None) -> list[float] | None:
    """Sweep values from ``--values``, comma-separated numbers: an empty
    entry is not one."""
    if values is None:
        return None
    try:
        return [float(v) for v in values.split(",")]
    except ValueError:
        raise ValueError(
            f"--values must be comma-separated numbers: {values!r}")


def _cmd_sweep(args, axis: str) -> int:
    fields = {field: getattr(args, key)
              for key, (field, _, _) in _knobs(axis).items()}
    if args.deterministic_fading:
        fields["channel"] = ChannelParams(fading="none")
    config = ExperimentConfig(**fields)
    values = _parse_values(args.values)
    out = args.out
    if out is None:
        raise ValueError("--out is required")
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
