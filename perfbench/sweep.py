"""Run the benchmark over several workload seeds and summarize each metric.

    python3 perfbench/sweep.py --seeds 0-9 --trace 0 --out perfbench/baseline.json

Runs ``run.py`` once per workload and seed, one at a time, for
``run_seconds`` from BENCHMARK.json. For every metric it records the ten
values, their median and quartiles (``statistics.quantiles(n=4)``) and the
spread, (q3 - q1) / median; for end-to-end metrics it also compares the
spread with the metric's bound. Results go under ``--label`` (default
``trace<0|1>``) in the ``--out`` file, next to the machine facts; other
keys already in the file are kept.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import lab


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", default=",".join(lab.WORKLOADS))
    parser.add_argument("--out", default=None, help="JSON file to record the results in")
    parser.add_argument("--label", default=None, help="key for the results (trace<0|1>)")
    args = parser.parse_args()

    lab.require_source()
    bench = lab.load_benchmark()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            try:
                runs.append(lab.run_benchmark(workload, seed, bench["run_seconds"], args.trace))
            except RuntimeError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median if median else None
            entry = {"unit": first["unit"], "median": median, "q1": q1, "q3": q3,
                     "spread": spread, "values": values}
            if args.trace == 0:
                entry["bound"] = bounds[name]
            metrics[name] = entry
            flag = ""
            if args.trace == 0 and spread is not None and spread > bounds[name] / 3:
                flag = " (over bound/3)"
            print(f"{workload:11s} {name:32s} median {median:12.6g} {first['unit']:8s} "
                  f"spread {spread if spread is not None else float('nan'):.4f}{flag}")
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"{workload:11s} {'failed_frac':32s} {failed / attempted:.6g} ratio "
              f"({failed} of {attempted} cells)")
        summary[workload] = {
            "seeds": parse_seeds(args.seeds),
            "correct": all(r["correct"] for r in runs),
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }
    if args.out is None:
        return 0
    out = Path(args.out)
    data = json.loads(out.read_text(encoding="utf-8")) if out.is_file() else {}
    data["machine"] = lab.machine_facts()
    data["run_seconds"] = bench["run_seconds"]
    data[args.label or f"trace{args.trace}"] = summary
    out.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
