"""Command-line front end.

Subcommands::

    train      run an experiment spec (method x seed sweep) and summarize
    dynamics   emit the collapse/recovery scenario curves as CSV
    coverage   teacher-forced Top-K recall table for a spec's tree
    gradcheck  finite-difference verification of every analytic gradient
    summarize  aggregate per-cell metrics into a per-method mean/std table

Specs are JSON files (see README for the schema); a spec's ``env`` is the
one name of a tree, for ``train`` and ``coverage`` alike. Exit codes: 0
success, 2 malformed config, 3 I/O failure. ``--seeds`` overrides the
spec's seed list, for ``train`` and ``summarize`` alike. A spec's cells
are its ``(MethodConfig, seed)`` pairs, and all of them train with the
spec's ``train`` section, one :class:`~anchorlab.trainer.TrainConfig`.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from dataclasses import dataclass, fields, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import trainer
from .anchor import build_anchor, grad_anchor_ratio
from .env import EnvConfig, ReasoningTree, oracle_coverage
from .gradients import (
    finite_diff,
    grad_log_prob,
    grad_prob,
    grad_support_mass,
    max_relative_error,
)
from .metrics import (
    METRIC_FIELD_NAMES,
    atomic_open,
    read_metrics_csv,
    write_metrics_csv,
)
from .objectives import METHODS, MethodConfig, kl_penalty, method_token_update
from .policy import check_int, softmax
from .trainer import TrainConfig, run_experiment, write_steps_jsonl

GRADCHECK_TOLERANCE = 1e-6


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentSpec:
    name: str
    env: EnvConfig
    methods: list[MethodConfig]
    seeds: list[int]
    # The schedule every cell shares; a cell is a (method, seed) pair.
    train: TrainConfig
    output_dir: str | None = None
    # env.seed == null in the JSON: the cells of each seed share a tree
    # generated from that seed instead of all sharing one fixed tree.
    env_seed_follows_cell: bool = False


def spec_from_dict(data: dict) -> ExperimentSpec:
    try:
        name = data["name"]
        env_data = dict(data["env"])
        follows_cell = env_data.get("seed", 0) is None
        if follows_cell:
            env_data["seed"] = 0
        env = EnvConfig(**env_data)
        methods = []
        for i, m in enumerate(data["methods"]):
            try:
                methods.append(MethodConfig(**m))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"methods[{i}]: {exc}") from exc
        seeds = list(data["seeds"])
        train = dict(data.get("train", {}))
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    if not methods:
        raise ConfigError("methods must be nonempty")
    if not seeds:
        raise ConfigError("seeds must be nonempty")
    _check_seeds(seeds, "seeds")
    # The name is one directory under the output root. No path holds a NUL.
    if (not isinstance(name, str) or name in ("", ".", "..") or "/" in name
            or "\0" in name):
        raise ConfigError(f"name must be a nonempty string naming one directory, got {name!r}")
    output_dir = data.get("output_dir")
    if output_dir is not None and (not isinstance(output_dir, str) or "\0" in output_dir):
        raise ConfigError(f"output_dir must be a string without NUL, got {output_dir!r}")
    names = [m.method for m in methods]
    if len(set(names)) != len(names):
        raise ConfigError(f"method names must be unique, got {names}")
    unknown = set(train) - {f.name for f in fields(TrainConfig)}
    if unknown:
        raise ConfigError(f"unknown train keys: {sorted(unknown)}")
    try:
        train = TrainConfig(**train)
        if train.support_k is not None and train.support_k > env.branching:
            raise ValueError(f"support_k must be in [1, {env.branching}], got {train.support_k}")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"train: {exc}") from exc
    return ExperimentSpec(
        name=name,
        env=env,
        methods=methods,
        seeds=seeds,
        train=train,
        output_dir=output_dir,
        env_seed_follows_cell=follows_cell,
    )


def load_spec(path) -> ExperimentSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return spec_from_dict(data)


def _timestamp(args) -> str | None:
    if args.no_timestamp:
        return None
    return datetime.now(timezone.utc).isoformat()


# ---------------------------------------------------------------------------
# gradcheck


def gradient_check_suite(n_cases: int = 1000, seed: int = 0) -> dict[str, float]:
    """Max relative error of every analytic gradient vs central differences.

    Cases cycle through V in {2, 4, 8, 32} with random logits, targets,
    anchor sets, and advantages. Method surrogates are checked on their
    unclipped branches only, away from the clip boundary.
    """
    rng = np.random.default_rng(seed)
    sizes = (2, 4, 8, 32)
    h = 1e-5
    worst: dict[str, float] = {}

    def track(name: str, analytic, numeric) -> None:
        err = max_relative_error(analytic, numeric)
        if err > worst.get(name, 0.0):
            worst[name] = err

    for case in range(n_cases):
        v = sizes[case % len(sizes)]
        z = rng.normal(0.0, 1.5, size=v)
        dist = softmax(z)
        old = softmax(rng.normal(0.0, 1.5, size=v))
        ref = softmax(rng.normal(0.0, 1.0, size=v))
        target = int(rng.integers(v))
        set_size = int(rng.integers(1, v + 1))
        members = tuple(int(i) for i in rng.choice(v, size=set_size, replace=False))
        advantage = float(rng.normal(0.0, 1.5))

        track("grad_log_prob", grad_log_prob(dist, target),
              finite_diff(lambda zz: np.log(softmax(zz)[target]), z, h))
        track("grad_prob", grad_prob(dist, target),
              finite_diff(lambda zz: softmax(zz)[target], z, h))
        track("grad_support_mass", grad_support_mass(dist, members),
              finite_diff(lambda zz: float(softmax(zz)[list(members)].sum()), z, h))
        track("kl_penalty", kl_penalty(dist, ref)[1],
              finite_diff(lambda zz: kl_penalty(softmax(zz), ref)[0], z, h))

        k = int(rng.integers(1, v + 1))
        err_token = int(rng.integers(v))
        try:
            anch = build_anchor(ref, dist, err_token, k)
        except ValueError:
            anch = None
        if anch is not None:
            idx = list(anch.anchor_set)
            zm = anch.z_ref_mass
            track("grad_anchor_ratio", grad_anchor_ratio(dist, anch),
                  finite_diff(lambda zz: float(softmax(zz)[idx].sum()) / zm, z, h))

        for method in METHODS:
            cfg = MethodConfig(method=method, anchor_k=max(1, min(8, v - 1)))

            def surrogate(zz, c=cfg):
                return method_token_update(softmax(zz), old, ref, target, advantage, c).surrogate_value

            update = method_token_update(dist, old, ref, target, advantage, cfg)
            if update.clipped:
                continue
            ratio = float(dist[target] / old[target])
            if method == "apo" and advantage < 0:
                ratio = update.surrogate_value / advantage  # recover rectified ratio
            if min(abs(ratio - (1 - cfg.clip_eps)), abs(ratio - (1 + cfg.clip_eps))) < 1e-3:
                continue  # too close to the clip kink for central differences
            if method == "nsr" and advantage >= 0:
                continue
            track(f"surrogate_{method}", update.gradient, finite_diff(surrogate, z, h))
    return worst


# ---------------------------------------------------------------------------
# subcommands


def _tree(env: EnvConfig) -> ReasoningTree:
    # Looked up on trainer: perfbench's env.generate_tree span wraps that attribute.
    try:
        return trainer.generate_tree(env)
    except ValueError as exc:  # reference logits beyond the float64 range
        raise ConfigError(str(exc)) from exc


def _run_stack(spec: ExperimentSpec, cells: list[tuple[MethodConfig, int]],
               tree: ReasoningTree, out_root: Path, timestamp: str | None) -> None:
    """Train ``cells`` ((method, seed) pairs sharing ``tree`` and a group
    size) as one stack, then write each cell's files in the order given, so
    a stack that fails leaves none of its cells written."""
    for (m, seed), (records, stats) in zip(cells, run_experiment(spec.train, cells, tree)):
        cell_dir = out_root / spec.name / m.method / str(seed)
        cell_dir.mkdir(parents=True, exist_ok=True)
        # metrics.csv last: summarize reads it, so it marks a finished cell.
        write_steps_jsonl(stats, cell_dir / "steps.jsonl")
        write_metrics_csv(records, cell_dir / "metrics.csv", timestamp)


def _summary_rows(spec: ExperimentSpec, out_root: Path) -> list[str]:
    stat_fields = [f for f in METRIC_FIELD_NAMES if f not in ("step", "eval_k")]
    header = ["method", "seeds"]
    for name in stat_fields:
        header += [f"{name}_mean", f"{name}_std"]
    rows = [",".join(header)]
    for method in spec.methods:
        finals = []
        for seed in spec.seeds:
            path = out_root / spec.name / method.method / str(seed) / "metrics.csv"
            try:
                records = read_metrics_csv(path)
            except ValueError as exc:
                raise ConfigError(f"{path}: {exc}") from exc
            if not records:
                raise ConfigError(f"{path}: no metric records")
            finals.append(records[-1])
        row = [method.method, str(len(finals))]
        for name in stat_fields:
            values = np.array([getattr(r, name) for r in finals], dtype=np.float64)
            row += [repr(float(values.mean())), repr(float(values.std()))]
        rows.append(",".join(row))
    return rows


def _write_summary(spec: ExperimentSpec, out_root: Path, rows: list[str],
                   timestamp: str | None) -> Path:
    path = out_root / spec.name / "summary.csv"
    with atomic_open(path) as fh:
        if timestamp is not None:
            fh.write(f"# generated {timestamp}\n")
        fh.write("\n".join(rows) + "\n")
    return path


def _parse_ints(text: str, what: str) -> list[int]:
    try:
        return [int(s) for s in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"{what}: expected comma-separated integers, got {text!r}") from exc


def _check_int(name: str, value, low: int) -> None:
    """:func:`~anchorlab.policy.check_int` for a flag or a seed."""
    try:
        check_int(name, value, low)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _check_seeds(seeds: list[int], what: str) -> list[int]:
    for seed in seeds:
        _check_int(what, seed, 0)
    # A repeated seed is one cell directory counted twice in summary.csv.
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"{what} must not repeat a seed, got {seeds}")
    return seeds


def _resolve_seeds(spec: ExperimentSpec, args) -> list[int]:
    if args.seeds is not None:
        return _check_seeds(_parse_ints(args.seeds, "--seeds"), "--seeds")
    return spec.seeds


def cmd_train(args) -> int:
    _check_int("--jobs", args.jobs, 1)
    spec = load_spec(args.spec)
    spec.seeds = _resolve_seeds(spec, args)
    out_root = Path(args.out or spec.output_dir or "results")
    timestamp = _timestamp(args)
    # One tree for the whole sweep with a fixed env seed, one per seed
    # otherwise.
    if spec.env_seed_follows_cell:
        sweep = [(replace(spec.env, seed=seed), [seed]) for seed in spec.seeds]
    else:
        sweep = [(spec.env, spec.seeds)]
    # The cells that share a tree and a group size train in lockstep as one
    # stack, method by method, whatever their methods and coefficients: a
    # pass makes one token_gradients call for the whole stack. Training
    # only reads the tree (a stack copies the reference once).
    # What is alive now (modules, the spec) outlives the sweep, so the
    # collector is told not to rescan it during the cells; unfreezing
    # afterwards lets a process that calls main() again free it.
    gc.freeze()
    try:
        for env, seeds in sweep:
            tree = None  # free the last seed's tree before building the next
            tree = _tree(env)
            for size in dict.fromkeys(m.group_size for m in spec.methods):
                _run_stack(spec, [(m, seed) for m in spec.methods if m.group_size == size
                                  for seed in seeds], tree, out_root, timestamp)
    finally:
        gc.unfreeze()
    summary = _write_summary(spec, out_root, _summary_rows(spec, out_root), timestamp)
    cells = len(spec.methods) * len(spec.seeds)
    print(f"wrote {cells} cells under {out_root / spec.name}; summary: {summary}")
    return 0


def cmd_summarize(args) -> int:
    spec = load_spec(args.spec)
    spec.seeds = _resolve_seeds(spec, args)
    out_root = Path(args.out or spec.output_dir or "results")
    rows = _summary_rows(spec, out_root)
    path = _write_summary(spec, out_root, rows, _timestamp(args))
    print("\n".join(rows))
    print(f"summary: {path}")
    return 0


def cmd_coverage(args) -> int:
    # A spec whose env seed is null reports the tree of env seed 0.
    env = load_spec(args.spec).env
    ks = _parse_ints(args.k_values, "--k-values")
    tree = _tree(env)
    try:
        table = oracle_coverage(tree, tree.ref_policy, ks)
    except ValueError as exc:
        raise ConfigError(f"--k-values: {exc}") from exc
    # One row per distinct K, ascending: the keys of the table.
    text = "K,recall,loss_rate\n" + "".join(
        f"{k},{r!r},{1.0 - r!r}\n" for k, r in table.items()
    )
    print(text, end="")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with atomic_open(out / "coverage.csv") as fh:
            fh.write(text)
    return 0


def cmd_gradcheck(args) -> int:
    _check_int("--cases", args.cases, 1)
    _check_int("--seed", args.seed, 0)
    worst = gradient_check_suite(args.cases, args.seed)
    failed = False
    for name in sorted(worst):
        status = "ok" if worst[name] < GRADCHECK_TOLERANCE else "FAIL"
        failed = failed or status == "FAIL"
        print(f"{name}: max_rel_err={worst[name]:.3e} [{status}]")
    if failed:
        print(f"error: gradcheck: at least one kernel exceeded {GRADCHECK_TOLERANCE}")
        return 1
    return 0


def cmd_dynamics(args) -> int:
    # Imported here: no other subcommand needs it, and without a bytecode
    # cache every imported module is compiled at start-up.
    from . import dynamics as dyn

    _check_int("--steps", args.steps, 0)
    _check_int("--seed", args.seed, 0)
    rng = np.random.default_rng(args.seed)
    reports = []

    uniform = np.zeros(4)
    rep = dyn.DynamicsReport("passive_suppression")
    for i, adv in enumerate((0.25, 0.5, 1.0, 2.0)):
        rep.add(i, "advantage", adv)
        rep.add(i, "delta_z_valid", dyn.passive_suppression_step(uniform, 0, 1, adv, 0.1))
    reports.append(rep)

    reports.append(
        dyn.vanishing_recovery_sweep(np.logspace(-6, -0.5, 12), penalty=1.0, eta=0.1)
    )
    reports.append(
        dyn.redistribution_compare([0.6, 0.25, 0.1, 0.04, 0.01], 0, {1, 2})
    )

    bandit_logits = np.array([1.0, 1.0, 0, 0, 0, 0, 0, 0])
    for method in ("grpo", "apo"):
        cfg = MethodConfig(method=method, anchor_k=4)
        reports.append(
            dyn.collapse_trajectory(
                bandit_logits, {0, 1}, cfg, args.steps,
                np.random.default_rng(rng.integers(2**32)),
            )
        )

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dyn.write_reports_csv(reports, out / "dynamics.csv")
    print(f"wrote {out / 'dynamics.csv'} ({sum(len(r.records) for r in reports)} records)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="anchorlab")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run an experiment spec")
    p_train.add_argument("--spec", required=True)
    p_train.add_argument("--out", default=None)
    p_train.add_argument("--seeds", default=None, help="comma-separated seed list")
    p_train.add_argument("--no-timestamp", action="store_true")
    p_train.add_argument(
        "--jobs", type=int, default=1,
        help="kept for compatibility: must be >= 1; cells always run one at a time")
    p_train.set_defaults(func=cmd_train)

    p_sum = sub.add_parser("summarize", help="aggregate metrics.csv files")
    p_sum.add_argument("--spec", required=True)
    p_sum.add_argument("--out", default=None)
    p_sum.add_argument("--seeds", default=None)
    p_sum.add_argument("--no-timestamp", action="store_true")
    p_sum.set_defaults(func=cmd_summarize)

    p_cov = sub.add_parser("coverage", help="teacher-forced Top-K recall table")
    p_cov.add_argument("--spec", required=True)
    p_cov.add_argument("--k-values", default="1,4,8")
    p_cov.add_argument("--out", default=None)
    p_cov.set_defaults(func=cmd_coverage)

    p_grad = sub.add_parser("gradcheck", help="finite-difference verification")
    p_grad.add_argument("--cases", type=int, default=1000)
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.set_defaults(func=cmd_gradcheck)

    p_dyn = sub.add_parser("dynamics", help="collapse/recovery scenario curves")
    p_dyn.add_argument("--out", default="results/dynamics")
    p_dyn.add_argument("--seed", type=int, default=0)
    p_dyn.add_argument("--steps", type=int, default=400)
    p_dyn.set_defaults(func=cmd_dynamics)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: config: {exc}")
        return 2
    except MemoryError as exc:
        # Values that all pass their bounds may still size an array beyond
        # memory: a tree's (C, B) reference table, or a sample block sized
        # by groups_per_step, group_size or eval_samples_k, even one numpy
        # cannot shape (policy.uniform_block).
        print(f"error: config: an array sized by the config does not fit in memory: {exc}")
        return 2
    except OSError as exc:
        print(f"error: io: {exc}")
        return 3


if __name__ == "__main__":
    sys.exit(main())
