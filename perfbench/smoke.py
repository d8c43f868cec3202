"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs the shortest run of every workload (``--seconds 1``: two repetitions),
untraced and traced, and a second workload seed untraced. Each run must
print every metric BENCHMARK.json declares for its mode, with that unit,
and pass the output check; the second seed must pick other cell seeds.
Exits 0 when all of that holds.
"""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor

import lab

SEEDS = (0, 1)


def check(workload: str, seed: int, trace: int, declared: dict) -> list[str]:
    try:
        result = lab.run_benchmark(workload, seed, 1, trace)
    except RuntimeError as exc:
        return [str(exc)]
    where = f"{workload} seed {seed} trace {trace}"
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"{where}: output check failed: {result}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(declared):
        problems.append(f"{where}: metrics {sorted(metrics)} != declared {sorted(declared)}")
    for name, unit in declared.items():
        got = metrics.get(name, {})
        if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{where}: {name} reported as {got}, expected a number in {unit}")
    return problems


def main() -> int:
    lab.require_source()
    bench = lab.load_benchmark()
    modes = {0: bench["end_to_end"], 1: bench["per_layer"]}
    declared = {t: {m["name"]: m["unit"] for m in ms} for t, ms in modes.items()}

    problems = []
    cases = []
    if [lab.cell_seed(SEEDS[0], n) for n in range(4)] == [
        lab.cell_seed(SEEDS[1], n) for n in range(4)
    ]:
        problems.append(f"seeds {SEEDS} pick the same cells")
    for workload in lab.WORKLOADS:
        cases += [(workload, SEEDS[0], 0), (workload, SEEDS[0], 1), (workload, SEEDS[1], 0)]
    # Runs share a work directory per workload, so one run per workload at a time.
    with ThreadPoolExecutor(max_workers=lab.nproc()) as pool:
        by_workload = {
            w: pool.submit(lambda w=w: [p for c in cases if c[0] == w
                                        for p in check(*c, declared[c[2]])])
            for w in lab.WORKLOADS
        }
        for fut in by_workload.values():
            problems += fut.result()
    for p in problems:
        print(f"FAIL {p}")
    print("smoke: " + ("FAIL" if problems else f"ok ({len(cases)} runs)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
