"""Record ``reference.json``: per-column digests of every pool cell's outputs.

    python3 perfbench/make_reference.py

Run from the root of a checkout, at the commit whose outputs are the
reference. It trains every cell seed in the pool of every workload through
``rep.py``, split over one process per core, and stores
``lab.cell_digests`` in the layout it describes. The benchmark then
requires later commits to reproduce these outputs byte for byte.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import lab


def main() -> int:
    lab.require_source()
    procs = lab.nproc()
    pool = [lab.POOL_BASE + i for i in range(lab.POOL_SIZE)]
    columns = None
    reference = {}
    for workload in lab.WORKLOADS:
        work = lab.WORK / "reference" / workload
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        runs = []
        for k in range(procs):
            spec = lab.make_spec(workload, pool[k::procs])
            spec_path = work / f"spec{k}.json"
            spec_path.write_text(json.dumps(spec), encoding="ascii")
            out = work / f"out{k}"
            cmd = [sys.executable, str(lab.BENCH_DIR / "rep.py"), str(spec_path), str(out),
                   "1", "train"]
            runs.append((spec, out, subprocess.Popen(cmd, cwd=lab.ROOT)))
        cells = {}
        for spec, out, proc in runs:
            if proc.wait() != 0:
                print(f"error: {workload} reference run exited {proc.returncode}", file=sys.stderr)
                return 1
            for method in spec["methods"]:
                for seed in spec["seeds"]:
                    cell = out / workload / method["method"] / str(seed)
                    digests = lab.cell_digests(*lab.read_cell(cell))
                    if columns is None:
                        columns = {f: list(cols) for f, cols in digests.items()}
                    cells[f"{method['method']}/{seed}"] = " ".join(
                        digests[f][col] for f, cols in columns.items() for col in cols
                    )
        reference[workload] = dict(sorted(cells.items()))
        print(f"{workload}: {len(cells)} cells")
    with open(lab.REFERENCE, "w", encoding="ascii") as fh:
        json.dump({"columns": columns, "cells": reference}, fh, indent=1)
        fh.write("\n")
    shutil.rmtree(lab.WORK / "reference", ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
