"""Golden-output gate: seeded sweeps must reproduce committed files byte
for byte.

Each case runs one ``mcms`` sweep command and compares its CSV, its
``.meta.json`` sidecar and its ``--dump-raw`` per-sample log with the
files under ``tests/golden/``.  The cases cover both axes, 1, 7 and 19
cells, deterministic fading, a single PRB and an EXACT column, and
the EXACT case without --exact must give its files less the EXACT
column.

The files pin the deterministic output contract, not a tolerance.  To
record them again after a deliberate change to that contract, run
``PYTHONPATH=src python tests/test_golden.py``.
"""

import json
import sys
from pathlib import Path

import pytest

from mcms.cli import main

# The golden bytes must be the same on every numpy allowed.
pytestmark = pytest.mark.numpy_contract

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "users_7cells": ["sweep-users", "--values", "20,40", "--trials", "2",
                     "--subframes", "5", "--seed", "3"],
    "users_7cells_default_load": ["sweep-users", "--values", "175,250",
                                  "--trials", "1", "--subframes", "6",
                                  "--seed", "11"],
    "radius_7cells": ["sweep-radius", "--values", "250,400",
                      "--users-per-cell", "15", "--trials", "2",
                      "--subframes", "4", "--seed", "4"],
    "users_1cell": ["sweep-users", "--cells", "1", "--values", "30,60",
                    "--trials", "2", "--subframes", "5", "--seed", "5"],
    "radius_19cells": ["sweep-radius", "--cells", "19", "--values", "300,450",
                       "--users-per-cell", "10", "--trials", "1",
                       "--subframes", "3", "--seed", "6"],
    "users_19cells": ["sweep-users", "--cells", "19", "--values", "12",
                      "--radius", "400", "--rate", "1.6e6", "--trials", "2",
                      "--subframes", "2", "--seed", "8"],
    "users_deterministic": ["sweep-users", "--values", "20,30",
                            "--radius", "650", "--trials", "2",
                            "--subframes", "3", "--seed", "7",
                            "--deterministic-fading"],
    "radius_deterministic": ["sweep-radius", "--values", "450,700",
                             "--users-per-cell", "25", "--trials", "2",
                             "--subframes", "2", "--seed", "9",
                             "--deterministic-fading"],
    "users_1prb": ["sweep-users", "--prbs", "1", "--values", "20,35",
                   "--trials", "2", "--subframes", "4", "--seed", "10"],
    "users_exact": ["sweep-users", "--values", "10,20", "--radius", "350",
                    "--rate", "1.8e6", "--trials", "1", "--subframes", "4",
                    "--seed", "12", "--exact"],
}

SUFFIXES = (".csv", ".csv.meta.json", ".raw.csv")


def run_case(name: str, directory: Path) -> dict[str, bytes]:
    """Run one case into ``directory``; returns file suffix -> bytes."""
    out = directory / f"{name}.csv"
    raw = directory / f"{name}.raw.csv"
    assert main(CASES[name] + ["--out", str(out), "--dump-raw", str(raw)]) == 0
    return {s: (directory / f"{name}{s}").read_bytes() for s in SUFFIXES}


@pytest.mark.parametrize("name", sorted(CASES))
def test_sweep_output_matches_golden_bytes(name, tmp_path):
    got = run_case(name, tmp_path)
    for suffix, data in got.items():
        want = (GOLDEN / f"{name}{suffix}").read_bytes()
        assert data == want, f"{name}{suffix} differs from the golden file"


def test_users_exact_without_exact_is_its_sc_and_mc_columns(tmp_path):
    # The EXACT column is one more column: without --exact the case
    # writes the golden files with every EXACT entry taken out.
    argv = [arg for arg in CASES["users_exact"] if arg != "--exact"]
    out, raw = tmp_path / "x.csv", tmp_path / "x.raw.csv"
    assert main(argv + ["--out", str(out), "--dump-raw", str(raw)]) == 0
    for got, suffix in ((out, ".csv"), (raw, ".raw.csv")):
        want = (GOLDEN / f"users_exact{suffix}").read_text().splitlines()
        assert got.read_text().splitlines() == [
            line.rsplit(",", 1)[0] for line in want]
    meta = json.loads((GOLDEN / "users_exact.csv.meta.json").read_text())
    del meta["columns"]["EXACT"]
    for point in meta["points"]:
        del point["mean_exact"], point["std_exact"]
    assert json.loads(Path(f"{out}.meta.json").read_text()) == meta


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(CASES):
        run_case(case, GOLDEN)
        print(f"recorded {case}", file=sys.stderr)
