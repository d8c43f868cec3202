"""Sweep benchmark for anchorlab.

    python3 perfbench/run.py --workload collapse --seed 0 --seconds 60 --trace 0

Run from the root of a checkout. Each repetition trains one cell seed,
taken in the order the workload seed shuffles the pool (``lab.cell_seed``),
through ``anchorlab.cli.main(["train", ...])`` in a fresh interpreter
(``rep.py``), until ``--seconds`` is used up; the generated specs are
written under ``.bench_work/``.

With ``--trace 0`` it reports the end-to-end metrics: the median over
repetitions of ``steps_per_s`` (outer steps over all cells / wall time of
the train call), ``setup_s`` (median over several set-up-only interpreters
plus every repetition's set-up) and ``peak_rss_mb``. Set-up times, and the
throughput of a workload whose cells run one at a time, are scaled to the
reference machine speed, each child's by the median of the
``lab.calibrate`` times taken just before and just after it.
With ``--trace 1`` an untraced and a traced repetition train each cell seed
in turn; it reports the per-layer metrics from ``spans.py`` (median over
traced repetitions) and ``trace.overhead_frac``, the share of untraced
throughput lost to tracing.

Every cell of every repetition is checked (``lab.check_cell``); a cell that
fails, or is missing after a crash, counts as failed, and a crashed
repetition's throughput counts the steps its finished cells completed.
Each repetition's ``summary.csv`` must agree with its cells
(``lab.check_summary``).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Exit code 2 means the checkout
has no anchorlab sources; 1 means no repetition reported back.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time

import lab
import spans

SETUP_RUNS = 3
MIN_REPS = 2
CAL_SAMPLES = 3  # lab.calibrate() runs before the first child and after each
CHILD_CAP_S = 170.0


def run_child(spec_path, out, jobs, mode, timeout) -> dict | None:
    cmd = [sys.executable, str(lab.BENCH_DIR / "rep.py"), str(spec_path), str(out),
           str(jobs), mode]
    try:
        proc = subprocess.run(cmd, cwd=lab.ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"error: {mode} repetition timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: {mode} repetition exited {proc.returncode}: {proc.stderr[-2000:]}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def check_rep(workload, spec, rep_dir, reference):
    """(failed cells, completed steps, whether summary.csv agrees with the cells)."""
    failed = 0
    steps = 0
    root = rep_dir / spec["name"]
    (seed,) = spec["seeds"]
    methods = [m["method"] for m in spec["methods"]]
    for method in methods:
        cell = root / method / str(seed)
        problems = lab.check_cell(workload, cell, reference)
        if problems:
            failed += 1
            print(f"cell {method}/{seed} failed: {'; '.join(problems)}", file=sys.stderr)
        if (cell / "steps.jsonl").is_file():
            steps += len((cell / "steps.jsonl").read_bytes().splitlines())
    problems = lab.check_summary(root, methods, seed)
    for p in problems:
        print(p, file=sys.stderr)
    return failed, steps, not problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(lab.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    lab.require_source()
    start = time.perf_counter()
    declared = lab.load_benchmark()["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    reference = lab.load_reference()
    work = lab.WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    jobs = lab.jobs_for(args.workload)
    cells = len(lab.WORKLOADS[args.workload].methods)

    def spec_for(n):
        """Spec and its path for the n-th cell seed of the run."""
        spec = lab.make_spec(args.workload, [lab.cell_seed(args.seed, n)])
        path = work / f"spec{n}.json"
        path.write_text(json.dumps(spec, indent=1), encoding="ascii")
        return spec, path

    boundary = [lab.calibrate() for _ in range(CAL_SAMPLES)]

    def child(spec_path, out, mode):
        """Run one child and set its result's ``speed``: CAL_REF_S over the
        median of the calibration times taken just before and just after it."""
        nonlocal boundary
        before = boundary
        timeout = max(10.0, CHILD_CAP_S - (time.perf_counter() - start))
        res = run_child(spec_path, out, jobs, mode, timeout)
        boundary = [lab.calibrate() for _ in range(CAL_SAMPLES)]
        if res is not None:
            res["speed"] = lab.CAL_REF_S / statistics.median(before + boundary)
        return res

    spec, spec_path = spec_for(0)
    child(spec_path, work / "warm", "setup")  # fills bytecode caches
    setups = []
    for _ in range(SETUP_RUNS):
        res = child(spec_path, work / "setup", "setup")
        if res is not None:
            setups.append(res)

    cycle = ["train", "traced"] if args.trace else ["train"]
    reps = []  # (mode, child result or None, failed cells, steps, summary agrees)
    durations = []
    while True:
        elapsed = time.perf_counter() - start
        expected = statistics.median(durations) if durations else 0.0
        if len(reps) >= MIN_REPS and elapsed + expected > args.seconds:
            break
        mode = cycle[len(reps) % len(cycle)]
        if mode == cycle[0]:
            spec, spec_path = spec_for(len(reps) // len(cycle))
        rep_dir = work / f"rep{len(reps)}"
        t = time.perf_counter()
        res = child(spec_path, rep_dir, mode)
        durations.append(time.perf_counter() - t)
        reps.append((mode, res, *check_rep(args.workload, spec, rep_dir, reference)))
        shutil.rmtree(rep_dir, ignore_errors=True)

    ok = [(mode, res, steps) for mode, res, _, steps, _ in reps if res is not None]
    def throughput(res, steps):
        """Steps per second of a child. The calibration kernel is serial, so
        it scales training only when the cells run one at a time."""
        return steps / res["train_s"] / (res["speed"] if jobs == 1 else 1.0)

    wall = [steps / res["train_s"] for mode, res, steps in ok if mode == "train"]
    plain = [throughput(res, steps) for mode, res, steps in ok if mode == "train"]
    if not plain:
        print("error: no repetition reported back", file=sys.stderr)
        return 1
    setups += [res for _, res, _ in ok]
    setup_wall = [res["setup_s"] for res in setups]
    attempted = cells * len(reps)
    failed = sum(r[2] for r in reps)
    correct = failed == 0 and all(r[4] for r in reps)

    if args.trace:
        traced = [res for mode, res, _ in ok if mode == "traced"]
        traced_sps = [throughput(res, steps) for mode, res, steps in ok if mode == "traced"]
        if traced:
            values = {name: statistics.median(t["layers"][name] for t in traced)
                      for name in traced[0]["layers"]}
            values["trace.overhead_frac"] = (
                1.0 - statistics.median(traced_sps) / statistics.median(plain)
            )
        else:  # every traced repetition crashed; the failed cells already say so
            values = dict.fromkeys(units, 0.0)
        for t in traced:
            parts = sum(t["layers"][f"{layer}.self_s"] for layer in spans.LAYERS)
            balance = t["layers"]["trace.wall_s"] - parts - t["layers"]["trace.unattributed_s"]
            if abs(balance) > 1e-6 * t["layers"]["trace.wall_s"]:
                print(f"error: layer self times miss the wall time by {balance} s",
                      file=sys.stderr)
                correct = False
        absent = sorted({name for t in traced for name in t["absent"]})
        if absent:
            print(f"absent layers (reported as 0): {', '.join(absent)}")
    else:
        values = {
            "steps_per_s": statistics.median(plain),
            "setup_s": statistics.median(res["setup_s"] * res["speed"] for res in setups),
            "peak_rss_mb": statistics.median(
                res["peak_rss_mb"] for m, res, _ in ok if m == "train"
            ),
        }

    metrics = {}
    for name, unit in units.items():
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{args.workload} {name} = {metrics[name]['value']:.6g} {unit}")
    print(f"{args.workload} failed_frac = {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} cells)")
    seeds = [lab.cell_seed(args.seed, n) for n in range(-(-len(reps) // len(cycle)))]
    print(f"repetitions: {len(reps)} ({', '.join(r[0] for r in reps)}); "
          f"set-up samples: {len(setups)}; cell seeds: {seeds}; jobs: {jobs}")
    print("wall-clock steps_per_s by repetition: " + " ".join(f"{v:.4g}" for v in wall))
    print("machine speed by repetition: " + " ".join(f"{res['speed']:.3g}" for _, res, _ in ok))
    print(f"wall-clock setup_s median: {statistics.median(setup_wall):.4g}")
    print("machine: " + json.dumps(lab.machine_facts()))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
