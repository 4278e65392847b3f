#!/usr/bin/env python3
"""Record the SC column of every workload for each pool seed.

Run from the repository root, at the commit whose output is the
reference:

    python3 perfbench/record_reference.py

It writes reference_sc.json next to this file.  run.py fails every
sweep whose SC column differs from it, so re-record only when the
seeded RNG contract is meant to change.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from run import (OUT, REFERENCE, REFERENCE_SEEDS, WORKLOADS, import_mcms,
                 read_csv)


def main() -> int:
    cli = import_mcms()
    OUT.mkdir(exist_ok=True)
    reference = {}
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        out = Path(tmp) / "sweep.csv"
        for workload in WORKLOADS.values():
            columns = []
            for seed in range(REFERENCE_SEEDS):
                argv = workload.argv() + ["--seed", str(seed), "--out", str(out)]
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    if cli.main(argv) != 0:
                        raise SystemExit(f"mcms {' '.join(argv)} failed")
                columns.append([row[1] for row in
                                read_csv(out.read_text(encoding="utf-8"))[1]])
            reference[workload.name] = {"argv": workload.argv(), "sc": columns}
            print(f"{workload.name}: {REFERENCE_SEEDS} seeds", file=sys.stderr)
    # One line per seed keeps the file short and its diffs readable.
    blocks = []
    for name, entry in reference.items():
        rows = ",\n      ".join(json.dumps(column) for column in entry["sc"])
        blocks.append(f'  {json.dumps(name)}: {{\n    "argv": '
                      f'{json.dumps(entry["argv"])},\n    "sc": [\n      '
                      f'{rows}\n    ]\n  }}')
    text = "{\n" + ",\n".join(blocks) + "\n}\n"
    assert json.loads(text) == reference
    REFERENCE.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
