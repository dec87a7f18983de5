"""Regenerate the reference table of one or more workloads.

    python3 perfbench/make_reference.py paper-s spare-4x4 figures

Runs every op of each workload's drop bank once and writes
``perfbench/reference/<workload>.json``: the sum rate per (drop,
scheme), or for ``figures`` the field-map row count, the x-cut lobe
metrics and the outage curve.  Ops that break an invariant are
reported and make the script exit nonzero; the table is written
anyway so the failure can be inspected.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import pin  # noqa: E402,F401  (before numpy)
from workloads import WORKLOADS, reference_path  # noqa: E402


def generate(name: str) -> tuple[dict, list[str]]:
    wl = WORKLOADS[name]()
    table, problems = {}, []
    out_dir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        for op in wl.bank_ops():
            inputs = wl.prepare(op)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                result = wl.run(op, inputs, out_dir)
            table[op.key] = wl.fingerprint(result)
            bad = wl.check(op, inputs, result, table)
            problems += [f"{name} {op.key}: {p}" for p in bad]
    finally:
        shutil.rmtree(out_dir)
    return table, problems


def main(names) -> int:
    failed = False
    for name in names or WORKLOADS:
        table, problems = generate(name)
        path = reference_path(name)
        os.makedirs(path.parent, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(table, fh, indent=0, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path.relative_to(ROOT)} ({len(table)} ops)")
        for p in problems:
            print(p, file=sys.stderr)
        failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
