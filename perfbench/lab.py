"""Workload definitions, spec generation and output checks shared by the
benchmark scripts.

Every workload trains on one fixed tree (``ENV_SEED``): the tree sets how
often a group has mixed rewards, and so how much update work a step does.
With a tree per cell seed, as in specs/collapse.json, the cost of a
100-step collapse cell varied across seeds with a coefficient of variation
of about 20%; with one tree, about 10%. The workload seed therefore varies
only the training and evaluation streams. Cell seeds come from a fixed pool
so that every cell a run can draw has reference outputs recorded in
``reference.json``. A repetition trains one cell seed, and the repetitions
of a run walk through the pool in an order the workload seed shuffles, so a
run's median averages the cost of many cells instead of riding on one.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = BENCH_DIR / "reference.json"

ENV_SEED = 0
POOL_BASE = 1000
POOL_SIZE = 40

COLLAPSE_ENV = {
    "depth": 4,
    "branching": 8,
    "num_valid_leaves": 8,
    "ref_concentration": 1.5,
    "ref_noise": 0.75,
    "seed": ENV_SEED,
}
COLLAPSE_METHODS = [
    {"method": "grpo", "learning_rate": 0.2},
    {"method": "apo", "anchor_k": 4, "learning_rate": 0.2},
]
COLLAPSE_TRAIN = {
    "groups_per_step": 4,
    "inner_epochs": 2,
    "eval_every": 25,
    "eval_samples_k": 64,
    "support_k": 4,
}


class Workload(NamedTuple):
    env: dict
    methods: list
    train: dict
    parallel: bool  # cells run through --jobs = nproc


# On an uncontended 2-vCPU Xeon VM a repetition takes about 3 s (collapse)
# or 9 s (deep_sweep), so a 60 s run makes 6 to 15 of them, and the two every
# run makes still fit when other tenants of a shared host slow it down 2.5x,
# as they did on that VM.
WORKLOADS = {
    # specs/collapse.json, shortened: the grpo-vs-apo headline sweep.
    "collapse": Workload(
        COLLAPSE_ENV, COLLAPSE_METHODS, {**COLLAPSE_TRAIN, "total_steps": 100}, False
    ),
    # 37,449 contexts, all five methods, one cell per core through --jobs.
    "deep_sweep": Workload(
        {**COLLAPSE_ENV, "depth": 6, "num_valid_leaves": 512},
        [
            {"method": "grpo", "learning_rate": 0.2},
            {"method": "grpo_kl", "learning_rate": 0.2},
            {"method": "grpo_kl_error_only", "learning_rate": 0.2},
            {"method": "nsr", "learning_rate": 0.2},
            {"method": "apo", "anchor_k": 4, "learning_rate": 0.2},
        ],
        {**COLLAPSE_TRAIN, "total_steps": 10, "eval_every": 10},
        True,
    ),
}


# Machine speed. On a shared host, other tenants change the speed of the same
# serial work by up to 1.7x, for minutes at a time, and anchorlab's serial
# work follows a fixed mix of the same kind of work (``calibrate``): over
# five 60 s runs of collapse, the spread of the run medians fell from 0.29
# of their median in wall-clock time to 0.08 when scaled. run.py therefore
# times ``calibrate`` next to every child and reports serial times at the
# speed at which ``calibrate`` takes CAL_REF_S, about its median on a 2-vCPU
# Xeon VM. deep_sweep's cells run on every core, and its run medians did not
# follow the serial kernel (spread 0.13 in wall-clock time, 0.22 scaled), so
# its throughput is reported in wall-clock time.
CAL_REF_S = 0.06
CAL_ROUNDS = 1000


def calibrate() -> float:
    """Seconds taken by a fixed mix of the work anchorlab does, calling
    nothing in anchorlab: softmax and sampling over 8-way rows, n-gram
    counting in dicts, and a pass over a 37,449-row table."""
    import numpy as np

    rng = np.random.default_rng(0)
    table = rng.random((4096, 8))
    big = rng.random((37449, 8))
    t = time.perf_counter()
    acc = 0.0
    for i in range(CAL_ROUNDS):
        row = table[i % 4096]
        p = np.exp(row - row.max())
        p /= p.sum()
        acc += float(np.log(p) @ p)
        seq = tuple(rng.choice(8, 32, p=p).tolist())
        counts = {}
        for gram in zip(seq, seq[1:]):
            counts[gram] = counts.get(gram, 0) + 1
        acc += sum(v * v for v in counts.values())
        if i % 50 == 0:
            acc += float((big * 0.5).sum())
    elapsed = time.perf_counter() - t
    if not math.isfinite(acc):
        raise ArithmeticError("calibration work gave a non-finite result")
    return elapsed


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def jobs_for(workload: str) -> int:
    return nproc() if WORKLOADS[workload].parallel else 1


def cell_seed(seed: int, rep: int) -> int:
    """Cell seed of repetition ``rep`` of a run with workload seed ``seed``."""
    order = random.Random(seed).sample(range(POOL_SIZE), POOL_SIZE)
    return POOL_BASE + order[rep % POOL_SIZE]


def make_spec(workload: str, seeds: list[int]) -> dict:
    w = WORKLOADS[workload]
    return {
        "name": workload,
        "env": dict(w.env),
        "methods": [dict(m) for m in w.methods],
        "seeds": list(seeds),
        "train": dict(w.train),
    }


def load_benchmark() -> dict:
    """BENCHMARK.json: workloads, metric names, units and bounds."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_benchmark(workload: str, seed: int, seconds, trace: int) -> dict:
    """Run ``run.py`` once in a child process and return its result line."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def require_source() -> None:
    """Put the checkout's ``src`` first on the path, or exit with code 2."""
    if not (SRC / "anchorlab" / "__init__.py").is_file():
        print(f"error: no anchorlab sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def machine_facts() -> dict:
    import platform

    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": nproc(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


# ---------------------------------------------------------------------------
# output checks


def _digest(values) -> str:
    return hashlib.sha256("\n".join(values).encode()).hexdigest()[:8]


def read_cell(cell_dir: Path) -> tuple[dict[str, list[str]], list[dict]]:
    """metrics.csv as column name -> raw text values (comment lines
    skipped), and steps.jsonl as one dict per line."""
    lines = [ln for ln in (cell_dir / "metrics.csv").read_text(encoding="ascii").splitlines()
             if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    columns = {name: [row[i] for row in rows] for i, name in enumerate(header)}
    steps_text = (cell_dir / "steps.jsonl").read_text(encoding="ascii")
    return columns, [json.loads(ln) for ln in steps_text.splitlines()]


STEP_KEYS = ("step", "mean_reward", "frac_clipped", "degenerate_anchors")


def cell_digests(columns: dict[str, list[str]], steps: list[dict]) -> dict:
    """Per-column digests of metrics.csv and of the deterministic
    steps.jsonl fields, by file and column name.

    ``reference.json`` lists the recorded column names once under
    ``columns`` and stores each cell's digests in that order under
    ``cells``, by workload and ``method/seed``.
    """
    return {
        "metrics.csv": {name: _digest(vals) for name, vals in columns.items()},
        "steps.jsonl": {key: _digest([repr(s[key]) for s in steps]) for key in STEP_KEYS},
    }


def load_reference() -> dict:
    with open(REFERENCE, encoding="ascii") as fh:
        return json.load(fh)


def check_summary(run_dir: Path, methods: list[str], seed: int) -> list[str]:
    """Problems with ``summary.csv`` of a run that trained one cell seed.

    Over one seed, each method's mean is its cell's final metrics.csv row
    (every column but ``step`` and ``eval_K``, in order) and its std is 0.
    """
    problems = []
    try:
        lines = [ln for ln in (run_dir / "summary.csv").read_text(encoding="ascii").splitlines()
                 if ln and not ln.startswith("#")]
        rows = {ln.split(",")[0]: ln.split(",")[1:] for ln in lines[1:]}
        for method in methods:
            columns = read_cell(run_dir / method / str(seed))[0]
            want = [float(vals[-1]) for name, vals in columns.items()
                    if name not in ("step", "eval_K")]
            row = rows.get(method, [])
            means = [float(v) for v in row[1::2]]
            stds = [float(v) for v in row[2::2]]
            if row[:1] != ["1"] or means != want or len(stds) != len(want) or any(stds):
                problems.append(f"summary.csv row for {method} differs from its cell")
    except (OSError, ValueError, IndexError) as exc:
        problems.append(f"summary.csv unreadable: {exc!r}")
    return problems


def check_cell(workload: str, cell_dir: Path, reference: dict) -> list[str]:
    """Problems with one cell's outputs; empty when the cell is correct.

    Columns are matched by name against the recorded digests, so columns a
    later version adds are ignored while every recorded one must match
    byte for byte.
    """
    env, train = WORKLOADS[workload].env, WORKLOADS[workload].train
    problems = []
    try:
        columns, steps = read_cell(cell_dir)
        digests = cell_digests(columns, steps)
    except (OSError, ValueError, IndexError, KeyError) as exc:
        return [f"unreadable outputs: {exc!r}"]

    total = train["total_steps"]
    every = train["eval_every"]
    rows = 1 + total // every + (1 if total % every else 0)
    if any(len(v) != rows for v in columns.values()):
        problems.append(f"metrics.csv row count differs from {rows}")
    if len(steps) != total:
        problems.append(f"steps.jsonl has {len(steps)} lines, expected {total}")

    log_v = math.log(env["branching"])
    bounds = {"pass1": (0, 1), "passK": (0, 1), "entropy": (0, log_v),
              "support_mass": (0, 1), "kl": (0, math.inf)}
    tol = 1e-12
    for name, (lo, hi) in bounds.items():
        for text in columns.get(name, []):
            try:
                value = float(text)
            except ValueError:
                value = math.nan
            if not lo - tol <= value <= hi + tol:
                problems.append(f"{name}={text} outside [{lo}, {hi}]")

    key = f"{cell_dir.parent.name}/{cell_dir.name}"
    expected = reference["cells"].get(workload, {}).get(key)
    if expected is None:
        problems.append(f"no reference recorded for {workload} {key}")
        return problems
    names = [(f, col) for f, cols in reference["columns"].items() for col in cols]
    for (fname, col), want in zip(names, expected.split()):
        if digests[fname].get(col) != want:
            problems.append(f"{fname} column {col} differs from the reference")
    return problems
