"""Regenerate references.json from the program as it stands.

    python3 benchmarks/make_references.py

Runs every operation of every workload variant once (about two minutes)
and stores what each check compares against. Only rerun it when an output
is meant to change, and say so where the change is described.
"""

from __future__ import annotations

import json
import shutil
import sys

import run

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402


def main() -> int:
    work_dir = run.OUT_DIR / "make-references"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    refs = {}
    try:
        for build_ops in workloads.WORKLOADS.values():
            for variant in range(workloads.N_VARIANTS):
                for op in build_ops(variant, str(work_dir)):
                    if op.key not in refs:
                        refs[op.key] = op.extract(op.run())
                        print(op.key, file=sys.stderr)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    with open(run.BENCH_DIR / "references.json", "w", encoding="utf-8",
              newline="\n") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
