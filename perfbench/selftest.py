#!/usr/bin/env python3
"""Fast self-test of the benchmark at tiny sizes (about ten seconds).

Run from the repository root:

    python3 perfbench/selftest.py

It checks that both modes print every metric BENCHMARK.json names, with
its unit; that a deliberately wrong SC reference fails every sweep; that
the held-out seed sweeps mcms seeds no other seed draws; and that the
benchmark refuses to run, printing no result, in a directory that holds
only BENCHMARK.json and this directory.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

TINY = run.Workload("tiny", "users", (20, 30), subframes=2, exact=True)


def tiny_reference(seed: int) -> tuple[dict[int, list[str]], list[int]]:
    """SC column of each mcms seed the run will sweep, from this checkout,
    and the seeds whose sweep fails the benchmark's other checks.

    At these sizes the greedy sometimes serves fewer users than the
    uncoordinated SC choice (it is only a 1/2-approximation under the
    one-PRB-per-cell constraint), so MC > SC can show at a point.  The
    benchmark must count each such seed as one failed sweep.
    """
    cli = run.import_mcms()
    reference, failing = {}, []
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        out = Path(tmp) / "ref.csv"
        for s in run.input_seeds(seed):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                assert cli.main(TINY.argv() + ["--seed", str(s),
                                               "--out", str(out)]) == 0
            csv_text = out.read_text(encoding="utf-8")
            reference[s] = [row[1] for row in run.read_csv(csv_text)[1]]
            meta_text = Path(str(out) + ".meta.json").read_text(encoding="utf-8")
            if run.check_sweep(TINY, csv_text, meta_text, reference[s]):
                failing.append(s)
    return reference, failing


def measure(reference, trace: bool) -> tuple[dict, str]:
    lines = []

    def log(*args, file=None):
        lines.append(" ".join(map(str, args)))

    result = run.measure(TINY, 1, 0.3, trace, reference, setup_probes=1,
                         tail_calls=0, log=log)
    return result, "\n".join(lines)


def check_metrics(result: dict, declared: list[dict], failing: list,
                  trace: bool) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, f"metrics {got} != declared {want}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], float), (name, m)
    # Seeds are swept in turn, each traced right after its untraced sweep
    # with --trace 1.  A failing seed fails only its first sweep; later
    # ones must reproduce it.
    turns = result["attempted"] // (2 if trace else 1)
    swept = set(run.input_seeds(1)[:turns])
    assert result["failed"] == len(swept & set(failing)), (result, failing)
    assert result["correct"] == (not swept & set(failing)), result
    assert json.loads(json.dumps(result)) == result


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    run.OUT.mkdir(exist_ok=True)
    reference, failing = tiny_reference(1)
    if failing:
        print(f"MC > SC at some point for mcms seeds {failing} "
              f"(the greedy's approximation gap)")

    held_out = set(run.input_seeds(run.HELD_OUT_SEED))
    assert len(held_out) == run.SEEDS_PER_RUN, held_out
    assert held_out <= set(range(run.REFERENCE_SEEDS)), held_out
    for seed in range(1, 1000):
        assert held_out.isdisjoint(run.input_seeds(seed)), seed

    result, text = measure(reference, trace=False)
    check_metrics(result, bench["end_to_end"], failing, trace=False)
    for m in bench["end_to_end"]:
        assert any(line.split()[:1] == [m["name"]] and m["unit"] in line
                   for line in text.splitlines()), f"{m['name']} not printed"
    assert "error_rate" in text

    result, text = measure(reference, trace=True)
    check_metrics(result, bench["per_layer"], failing, trace=True)
    assert result["metrics"]["solvers.solve_exact.calls"]["value"] > 0

    wrong = {s: column[:] for s, column in reference.items()}
    for column in wrong.values():
        column[0] = repr(float(column[0]) + 1.0)
    result, text = measure(wrong, trace=False)
    assert not result["correct"], result
    assert result["failed"] == result["attempted"] > 0, result
    assert "SC column" in text, text

    with tempfile.TemporaryDirectory(dir=run.OUT) as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, Path(bare) / run.HERE.name)
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload",
             "users_default", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc

    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
