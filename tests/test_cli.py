import dataclasses
import json
import os
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import anchorlab.cli as cli
import anchorlab.dynamics as dynamics
import anchorlab.trainer as trainer
from anchorlab.cli import (
    ConfigError,
    gradient_check_suite,
    load_spec,
    main,
    spec_from_dict,
)
from anchorlab.env import EnvConfig
from anchorlab.metrics import MetricRecord, read_metrics_csv
from anchorlab.objectives import METHODS, MethodConfig
from anchorlab.trainer import StepStats, TrainConfig

SHIPPED_SPEC = Path(__file__).resolve().parents[1] / "specs" / "collapse.json"

SPEC = {
    "name": "smoke",
    "env": {
        "depth": 2,
        "branching": 3,
        "num_valid_leaves": 2,
        "ref_concentration": 1.0,
        "ref_noise": 0.3,
        "seed": 4,
    },
    "methods": [{"method": "grpo"}, {"method": "apo", "anchor_k": 2}],
    "seeds": [1, 2],
    "train": {
        "total_steps": 4,
        "groups_per_step": 2,
        "inner_epochs": 2,
        "eval_every": 2,
        "eval_samples_k": 8,
    },
}


def write_spec(tmp_path, data=None):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data or SPEC))
    return path


def assert_same_tree(got, want):
    # Bitwise: valid leaf ids and every reference logit.
    assert got.valid_ids.tobytes() == want.valid_ids.tobytes()
    rows = np.arange(len(want.ref_policy))
    assert len(got.ref_policy) == rows.size
    assert got.ref_policy.logits(rows).tobytes() == want.ref_policy.logits(rows).tobytes()


class TestSpecParsing:
    def test_duplicate_methods_rejected(self):
        bad = dict(SPEC, methods=[{"method": "grpo"}, {"method": "grpo"}])
        with pytest.raises(ConfigError):
            spec_from_dict(bad)

    def test_empty_seeds_rejected(self):
        with pytest.raises(ConfigError):
            spec_from_dict(dict(SPEC, seeds=[]))

    def test_unknown_train_key_rejected(self):
        # A cell is a (method, seed) pair and the env is the spec's own
        # section, so seed, env and method_config are no train keys.
        for key in ("bogus", "seed", "env", "method_config"):
            with pytest.raises(ConfigError, match="unknown train keys"):
                spec_from_dict(dict(SPEC, train={"total_steps": 1, key: 2}))

    def test_bad_json_raises_config_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_spec(path)

    def test_non_utf8_spec_exits_2(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_bytes(b"\xff\xfe{")
        with pytest.raises(ConfigError):
            load_spec(path)
        out = tmp_path / "out"
        assert main(["train", "--spec", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().out.startswith(f"error: config: {path}:")
        assert not out.exists()


def test_shipped_spec_resolves_to_the_cells_it_trains(tmp_path, monkeypatch):
    # Each cell trains the JSON train values with its method and seed; the
    # spec's env seed is null, so each cell's tree has the cell's seed.
    data = json.loads(SHIPPED_SPEC.read_text())
    assert data["env"]["seed"] is None
    train = TrainConfig(**data["train"])
    expected = {
        (m["method"], s): (MethodConfig(**m), EnvConfig(**dict(data["env"], seed=s)))
        for m in data["methods"] for s in data["seeds"]
    }
    built = []
    run = cli.run_experiment

    def record(train_cfg, cells, tree):
        built.extend((train_cfg, m, seed, tree) for m, seed in cells)
        return run(dataclasses.replace(train_cfg, total_steps=0), cells, tree)

    monkeypatch.setattr(cli, "run_experiment", record)
    assert main(["train", "--spec", str(SHIPPED_SPEC), "--out", str(tmp_path),
                 "--no-timestamp"]) == 0
    got = {(m.method, seed): (train_cfg, m, tree) for train_cfg, m, seed, tree in built}
    assert len(built) == len(got) == len(expected) == 10
    assert got.keys() == expected.keys()
    for key, (mcfg, env) in expected.items():
        train_cfg, m, tree = got[key]
        assert (train_cfg, m) == (train, mcfg), key
        assert_same_tree(tree, trainer.generate_tree(env))


class TestTrainCommand:
    def test_layout_and_determinism(self, tmp_path):
        spec_path = write_spec(tmp_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            code = main([
                "train", "--spec", str(spec_path), "--out", str(out), "--no-timestamp",
            ])
            assert code == 0
        for method in ("grpo", "apo"):
            for seed in ("1", "2"):
                cell = out_a / "smoke" / method / seed
                assert (cell / "metrics.csv").is_file()
                assert (cell / "steps.jsonl").is_file()
                assert (cell / "metrics.csv").read_bytes() == (
                    out_b / "smoke" / method / seed / "metrics.csv"
                ).read_bytes()
        assert (out_a / "smoke" / "summary.csv").is_file()

    def test_seed_flag_overrides_spec(self, tmp_path):
        spec_path = write_spec(tmp_path)
        out = tmp_path / "out"
        assert main([
            "train", "--spec", str(spec_path), "--out", str(out),
            "--seeds", "7", "--no-timestamp",
        ]) == 0
        assert (out / "smoke" / "grpo" / "7").is_dir()
        assert not (out / "smoke" / "grpo" / "1").exists()

    def test_jobs_2_writes_the_bytes_of_jobs_1(self, tmp_path):
        # --jobs is kept for compatibility only; every output but the wall
        # clock must be the --jobs 1 run's, for every method.
        methods = ["grpo", "grpo_kl", "grpo_kl_error_only", "nsr", "apo"]
        spec = dict(SPEC, methods=[{"method": m, "anchor_k": 2, "learning_rate": 2.0}
                                   for m in methods])
        spec_path = write_spec(tmp_path, spec)
        outs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            assert main(["train", "--spec", str(spec_path), "--out", str(out),
                         "--no-timestamp", "--jobs", jobs]) == 0
            outs.append(out / "smoke")
        serial, parallel = outs
        assert (serial / "summary.csv").read_bytes() == (parallel / "summary.csv").read_bytes()
        for method in methods:
            for seed in ("1", "2"):
                a, b = serial / method / seed, parallel / method / seed
                assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
                steps = []
                for cell in (a, b):
                    lines = [json.loads(l) for l in (cell / "steps.jsonl").read_text().splitlines()]
                    for line in lines:
                        for key in ("wallclock_ms", "rollout_ms", "update_ms", "eval_ms"):
                            del line[key]
                    steps.append([json.dumps(line) for line in lines])
                assert steps[0] == steps[1] and len(steps[0]) == SPEC["train"]["total_steps"]

    @pytest.mark.parametrize("env_seed, trees", [(4, 1), (None, 2)], ids=["fixed", "null"])
    def test_sweep_builds_one_tree_per_env_seed(self, tmp_path, monkeypatch, env_seed, trees):
        # 2 methods x 2 seeds: a fixed env seed is one tree for the whole
        # sweep; a null one is one tree per cell seed, shared by its methods.
        generate = trainer.generate_tree
        built = []

        def counted(env):
            built.append(env)
            return generate(env)

        cells = {}
        run = cli.run_experiment

        def record(train, stack, tree):
            for m, seed in stack:
                cells[m.method, seed] = tree
            return run(train, stack, tree)

        monkeypatch.setattr(trainer, "generate_tree", counted)
        monkeypatch.setattr(cli, "run_experiment", record)
        spec = write_spec(tmp_path, dict(SPEC, env=dict(SPEC["env"], seed=env_seed)))
        assert main(["train", "--spec", str(spec), "--out", str(tmp_path / "out"),
                     "--no-timestamp"]) == 0
        assert len(built) == trees
        assert sorted(cells) == [(m, s) for m in ("apo", "grpo") for s in SPEC["seeds"]]
        for (_, seed), tree in cells.items():
            env = EnvConfig(**dict(SPEC["env"], seed=seed if env_seed is None else env_seed))
            assert tree is not None
            assert_same_tree(tree, generate(env))

    @pytest.mark.parametrize("env_seed", [4, None], ids=["fixed", "null"])
    def test_cells_stack_by_tree_and_group_size(self, tmp_path, monkeypatch, env_seed):
        # grpo and apo share a group size, nsr has its own. A fixed env seed
        # is one tree, so one stack per group size over both seeds; a null
        # one is a tree per seed, so stacks per seed. A stack's cells come
        # method by method, each method's seeds side by side, and are
        # written in that order after the stack trains.
        methods = [{"method": "grpo"}, {"method": "nsr", "group_size": 4},
                   {"method": "apo", "anchor_k": 2}]
        spec = dict(SPEC, methods=methods, env=dict(SPEC["env"], seed=env_seed))
        events = []
        run, write = cli.run_experiment, cli.write_metrics_csv

        def stacked(train, cells, tree):
            events.append(("stack", [(m.method, seed) for m, seed in cells]))
            return run(train, cells, tree)

        def written(records, path, timestamp=None):
            events.append(("write", (path.parent.parent.name, int(path.parent.name))))
            return write(records, path, timestamp)

        monkeypatch.setattr(cli, "run_experiment", stacked)
        monkeypatch.setattr(cli, "write_metrics_csv", written)
        out = tmp_path / "out"
        assert main(["train", "--spec", str(write_spec(tmp_path, spec)), "--out", str(out),
                     "--no-timestamp"]) == 0

        def stack(cells):
            return [("stack", cells)] + [("write", cell) for cell in cells]

        if env_seed is None:
            want = (stack([("grpo", 1), ("apo", 1)]) + stack([("nsr", 1)])
                    + stack([("grpo", 2), ("apo", 2)]) + stack([("nsr", 2)]))
        else:
            want = (stack([("grpo", 1), ("grpo", 2), ("apo", 1), ("apo", 2)])
                    + stack([("nsr", 1), ("nsr", 2)]))
        assert events == want
        # Every cell is the cell trained alone, byte for byte.
        monkeypatch.undo()
        for m in methods:
            for seed in SPEC["seeds"]:
                env = EnvConfig(**dict(SPEC["env"], seed=seed if env_seed is None else env_seed))
                [(records, _)] = trainer.run_experiment(
                    TrainConfig(**SPEC["train"]), [(MethodConfig(**m), seed)],
                    trainer.generate_tree(env))
                alone = tmp_path / f"{m['method']}{seed}.csv"
                cli.write_metrics_csv(records, alone)
                cell = out / "smoke" / m["method"] / str(seed) / "metrics.csv"
                assert cell.read_bytes() == alone.read_bytes()

    def test_failed_stack_writes_none_of_its_cells(self, tmp_path, monkeypatch, capsys):
        # The nsr stack fails mid-run: the stack before it is written whole,
        # and no file of its own cells exists.
        spec = dict(SPEC, methods=[{"method": "grpo"}, {"method": "nsr", "group_size": 4}])
        step = trainer.train_step

        def failing(table, tree, stack, rngs, k):
            if stack.group_size == 4 and k == 3:  # the nsr stack
                raise OSError("device lost")
            return step(table, tree, stack, rngs, k)

        monkeypatch.setattr(trainer, "train_step", failing)
        out = tmp_path / "out"
        assert main(["train", "--spec", str(write_spec(tmp_path, spec)), "--out", str(out),
                     "--no-timestamp"]) == 3
        assert "error: io: device lost" in capsys.readouterr().out
        files = sorted(p.relative_to(out / "smoke").as_posix() for p in out.rglob("*")
                       if p.is_file())
        assert files == [f"grpo/{seed}/{name}" for seed in SPEC["seeds"]
                         for name in ("metrics.csv", "steps.jsonl")]

    def test_jobs_2_sweep_leaves_the_shared_tree_as_generated(self, tmp_path, monkeypatch):
        # Every cell of the sweep reads one tree; no cell may write to it.
        generate = trainer.generate_tree
        trees = []

        def kept(env):
            trees.append(generate(env))
            return trees[-1]

        monkeypatch.setattr(trainer, "generate_tree", kept)
        methods = ["grpo", "grpo_kl", "grpo_kl_error_only", "nsr", "apo"]
        spec = dict(SPEC, methods=[{"method": m, "anchor_k": 2, "learning_rate": 2.0}
                                   for m in methods])
        assert main(["train", "--spec", str(write_spec(tmp_path, spec)), "--out",
                     str(tmp_path / "out"), "--no-timestamp", "--jobs", "2"]) == 0
        (tree,) = trees
        assert_same_tree(tree, generate(EnvConfig(**SPEC["env"])))

    def test_missing_spec_is_config_error(self, tmp_path):
        assert main(["train", "--spec", str(tmp_path / "none.json"), "--out",
                     str(tmp_path)]) in (2, 3)

    def test_timestamp_header_present_by_default(self, tmp_path):
        spec_path = write_spec(tmp_path)
        out = tmp_path / "out"
        assert main(["train", "--spec", str(spec_path), "--out", str(out),
                     "--seeds", "1"]) == 0
        first = (out / "smoke" / "grpo" / "1" / "metrics.csv").read_text().splitlines()[0]
        assert first.startswith("# generated ")


MEMORY_ERROR = "error: config: an array sized by the config does not fit in memory: "
OVERFLOW = ("ref_concentration 1.0 and ref_noise 1e+308 give reference logits beyond the "
            "float64 range")


class TestMalformedInput:
    @pytest.mark.parametrize(
        "argv, message, spec_env",
        [
            (["train", "--seeds", "a"], None, None),
            (["summarize", "--seeds", "a"], None, None),
            # An empty list is malformed, not the spec's seeds.
            (["train", "--seeds", ""], "--seeds: expected comma-separated integers, got ''",
             None),
            (["summarize", "--seeds", ""], None, None),
            (["coverage", "--k-values", "0,9"], None, None),
            (["coverage", "--k-values", "x"], None, None),
            (["coverage"], "depth must be >= 1, got 0", {"depth": 0}),
            (["train", "--jobs", "0"], "--jobs must be >= 1, got 0", None),
            (["train", "--jobs", "-3"], None, None),
            (["train", "--seeds=-2"], "--seeds must be >= 0, got -2", None),
            (["train", "--seeds", "3,-2"], "--seeds must be >= 0, got -2", None),
            (["gradcheck", "--seed", "-1"], None, None),
            (["dynamics", "--seed", "-1", "--out", "out"], None, None),
            (["coverage"], "seed must be >= 0, got -1", {"seed": -1}),
            (["gradcheck", "--cases", "0"], "--cases must be >= 1, got 0", None),
            (["gradcheck", "--cases", "-3"], None, None),
            (["dynamics", "--steps", "-2", "--out", "out"], "--steps must be >= 0, got -2",
             None),
            (["coverage"], None, {"depth": 30, "branching": 8}),
            # concentration + noise * N(0, 1) overflows float64: no traceback,
            # no numpy RuntimeWarning (pyproject.toml makes one an error).
            (["train"], OVERFLOW, {"ref_noise": 1e308}),
            (["coverage"], OVERFLOW, {"ref_noise": 1e308}),
        ],
        ids=["train-seeds", "summarize-seeds", "train-seeds-empty", "summarize-seeds-empty",
             "k-values-range", "k-values-text",
             "coverage-depth", "jobs-0", "jobs-negative", "train-seeds-negative",
             "train-seeds-second-negative", "gradcheck-seed-negative",
             "dynamics-seed-negative", "coverage-seed-negative", "gradcheck-cases-0",
             "gradcheck-cases-negative", "dynamics-steps-negative",
             "coverage-ids-overflow-int64", "train-reference-overflow",
             "coverage-reference-overflow"],
    )
    def test_exits_2_with_config_error(self, tmp_path, monkeypatch, capsys, argv, message,
                                       spec_env):
        # ``message``, when given, is the whole error line after the prefix;
        # ``spec_env`` updates the env section of the spec the command is given.
        monkeypatch.chdir(tmp_path)
        if argv[0] in ("train", "summarize", "coverage"):
            data = dict(SPEC, env={**SPEC["env"], **(spec_env or {})})
            argv = argv + ["--spec", str(write_spec(tmp_path, data)),
                           "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        out = capsys.readouterr().out
        assert out.startswith("error: config:")
        if message is not None:
            assert out == f"error: config: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "section, value",
        [("seeds", [-1]), ("seeds", [2, -5]), ("env", dict(SPEC["env"], seed=-3))],
        ids=["seeds", "seeds-second", "env-seed"],
    )
    def test_negative_seed_exits_2_before_any_cell(self, tmp_path, capsys, section, value):
        out = tmp_path / "out"
        spec = write_spec(tmp_path, dict(SPEC, **{section: value}))
        assert main(["train", "--spec", str(spec), "--out", str(out)]) == 2
        assert capsys.readouterr().out.startswith("error: config:")
        assert not out.exists()

    def test_empty_methods_exits_2_before_any_cell(self, tmp_path, capsys):
        out = tmp_path / "out"
        spec = write_spec(tmp_path, dict(SPEC, methods=[]))
        assert main(["train", "--spec", str(spec), "--out", str(out)]) == 2
        assert capsys.readouterr().out == "error: config: methods must be nonempty\n"
        assert not out.exists()

    def test_bad_methods_entry_is_named_by_index(self, tmp_path, capsys):
        data = json.loads(SHIPPED_SPEC.read_text())
        data["methods"][1]["anchor_k"] = 0
        out = tmp_path / "out"
        assert main(["train", "--spec", str(write_spec(tmp_path, data)),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().out == (
            "error: config: methods[1]: anchor_k must be >= 1, got 0\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["coverage", "train"])
    def test_tree_too_large_for_memory_exits_2_before_any_cell(self, tmp_path, capsys,
                                                               command):
        # Node ids fit int64, but the (C, B) reference table is 2.19 PiB,
        # more than a 128 TiB user address space: the allocation fails at
        # once without touching memory.
        out = tmp_path / "out"
        env = dict(SPEC["env"], depth=30, branching=3)
        assert main([command, "--spec", str(write_spec(tmp_path, dict(SPEC, env=env))),
                     "--out", str(out)]) == 2
        printed = capsys.readouterr().out
        assert printed.startswith(MEMORY_ERROR)
        assert printed.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("key, value, why", [
        ("eval_samples_k", 10**11, "TiB"),
        ("groups_per_step", 10**10, "TiB"),
        # Blocks numpy cannot even shape: more bytes than an array can
        # hold, or a dimension past the int64 range.
        ("groups_per_step", 10**17, "array is too big"),
        ("eval_samples_k", 2**62, "Maximum allowed dimension exceeded"),
        ("group_size", 10**29, "Maximum allowed dimension exceeded"),
    ], ids=["eval_samples_k-100000000000", "groups_per_step-10000000000",
            "groups_per_step-1e17", "eval_samples_k-2**62", "group_size-1e29"])
    def test_sample_block_too_large_for_memory_exits_2_before_any_cell(self, tmp_path,
                                                                      capsys, key, value, why):
        # Every value is in bounds, but the 2 cells' (cells*K, D) evaluation
        # block, or their (cells*G*n, D) training block, is over 2 TiB or
        # past what numpy can shape: the allocation fails at once, and no
        # cell of the stack is written.
        if key == "group_size":  # a stack's cells share it
            spec = dict(SPEC, methods=[dict(m, group_size=value) for m in SPEC["methods"]])
        else:
            spec = dict(SPEC, train=dict(SPEC["train"], **{key: value}))
        out = tmp_path / "out"
        assert main(["train", "--spec", str(write_spec(tmp_path, spec)),
                     "--out", str(out)]) == 2
        printed = capsys.readouterr().out
        assert printed.startswith(MEMORY_ERROR) and why in printed
        assert printed.count("\n") == 1
        assert not any(p.is_file() for p in out.rglob("*"))

    def test_tree_ids_overflowing_int64_exit_2_before_any_cell(self, tmp_path, capsys):
        out = tmp_path / "out"
        spec = write_spec(tmp_path, dict(SPEC, env=dict(SPEC["env"], depth=30, branching=8)))
        assert main(["train", "--spec", str(spec), "--out", str(out)]) == 2
        printed = capsys.readouterr().out
        assert printed.startswith("error: config:") and "int64" in printed
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [("total_steps", -1), ("support_k", 0), ("support_k", 4), ("eval_every", "x")],
    )
    def test_bad_train_value_exits_2_before_any_cell(self, tmp_path, capsys, key, value):
        spec = dict(SPEC, train=dict(SPEC["train"], **{key: value}))
        out = tmp_path / "out"
        assert main(["train", "--spec", str(write_spec(tmp_path, spec)),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().out.startswith("error: config: train:")
        assert not out.exists()

    def test_support_k_beyond_the_branching_names_its_range(self, tmp_path, capsys):
        # TrainConfig bounds support_k below; the spec's tree bounds it above.
        spec = dict(SPEC, train=dict(SPEC["train"], support_k=4))
        out = tmp_path / "out"
        assert main(["train", "--spec", str(write_spec(tmp_path, spec)),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().out == "error: config: train: support_k must be in [1, 3], got 4\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("methods", "anchor_k", 2.5),
            ("methods", "group_size", 4.0),
            ("methods", "anchor_k", True),
            ("train", "total_steps", 3.5),
            ("train", "eval_samples_k", 8.0),
            ("train", "support_k", True),
            ("env", "depth", 2.0),
            ("env", "branching", 3.0),
            ("env", "num_valid_leaves", 2.5),
            ("env", "seed", 4.0),
            ("seeds", None, [1.7]),
            ("seeds", None, [True]),
        ],
        ids=lambda v: repr(v) if not isinstance(v, str) else v,
    )
    def test_non_integer_field_exits_2_before_any_cell(self, tmp_path, capsys,
                                                       section, key, value):
        if section == "seeds":
            spec = dict(SPEC, seeds=value)
        elif section == "methods":
            spec = dict(SPEC, methods=[{"method": "apo", key: value}])
        else:
            spec = dict(SPEC, **{section: dict(SPEC[section], **{key: value})})
        out = tmp_path / "out"
        assert main(["train", "--spec", str(write_spec(tmp_path, spec)),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().out.startswith("error: config:")
        assert not out.exists()


    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("methods", "push_coef", float("nan")),
            ("methods", "kl_coef", float("inf")),
            ("methods", "clip_eps", True),
            ("methods", "adv_eps", float("nan")),
            ("methods", "learning_rate", float("nan")),
            ("env", "ref_noise", float("nan")),
            ("env", "ref_concentration", float("inf")),
        ],
        ids=lambda v: repr(v) if not isinstance(v, str) else v,
    )
    def test_non_finite_or_bool_float_exits_2_before_any_cell(self, tmp_path, capsys,
                                                             section, key, value):
        if section == "methods":
            spec = dict(SPEC, methods=[{"method": "apo", key: value}])
        else:
            spec = dict(SPEC, env=dict(SPEC["env"], **{key: value}))
        out = tmp_path / "out"
        assert main(["train", "--spec", str(write_spec(tmp_path, spec)),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().out.startswith("error: config:")
        assert not out.exists()


    @pytest.mark.parametrize(
        "argv, seeds",
        [
            (["train"], [0, 0]),
            (["train", "--seeds", "4,4"], [1, 2]),
            (["summarize", "--seeds", "4,5,4"], [1, 2]),
            (["train", "--seeds", "3"], [2, 1, 2]),
        ],
        ids=["spec", "train-flag", "summarize-flag", "spec-under-flag"],
    )
    def test_duplicate_seed_exits_2_before_any_cell(self, tmp_path, capsys, argv, seeds):
        out = tmp_path / "out"
        spec = write_spec(tmp_path, dict(SPEC, seeds=seeds))
        assert main(argv + ["--spec", str(spec), "--out", str(out)]) == 2
        assert capsys.readouterr().out.startswith("error: config:")
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [("name", ["a"]), ("name", ""), ("name", "a/b"), ("name", ".."), ("name", "."),
         ("name", 5), ("output_dir", 5), ("output_dir", ["out"]),
         # A NUL used to pass here and fail after training, in mkdir.
         ("name", "a\0b"), ("output_dir", "out\0")],
        ids=lambda v: repr(v) if not isinstance(v, str) else v,
    )
    def test_bad_name_or_output_dir_exits_2_before_any_cell(self, tmp_path, monkeypatch,
                                                           capsys, key, value):
        # No --out: the spec's output_dir, or ./results, is the output root.
        monkeypatch.chdir(tmp_path)
        spec = write_spec(tmp_path, dict(SPEC, **{key: value}))
        assert main(["train", "--spec", str(spec)]) == 2
        assert capsys.readouterr().out.startswith("error: config:")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]


class TestAtomicWrites:
    @pytest.mark.parametrize("earlier", [True, False])
    @pytest.mark.parametrize("name", ["metrics.csv", "steps.jsonl", "summary.csv",
                                      "dynamics.csv", "coverage.csv"])
    def test_failed_write_leaves_no_partial_or_temp_file(self, tmp_path, monkeypatch, name,
                                                         earlier):
        # Each writer raises after its first line: a record that is not a
        # dataclass, a summary or dynamics row that is not a string; the
        # coverage table raises on a recall whose repr is not ASCII.
        spec = load_spec(write_spec(tmp_path))
        path = tmp_path / spec.name / name
        path.parent.mkdir()
        if earlier:
            path.write_text("earlier\n")

        class NotAscii(float):
            def __repr__(self):
                return "0.5\u00e9"

        with pytest.raises(UnicodeEncodeError if name == "coverage.csv" else TypeError):
            if name == "metrics.csv":
                record = MetricRecord(0, 0.25, 1.0, 1.5, 0.5, 0.75, 0.6, 0.01, 16)
                cli.write_metrics_csv([record, object()], path, "t")
            elif name == "steps.jsonl":
                stats = StepStats(1, 0.5, 0.0, 0, 1.0, 0.5, 0.25)
                cli.write_steps_jsonl([stats, object()], path)
            elif name == "summary.csv":
                cli._write_summary(spec, tmp_path, ["method,seeds", 1], "t")
            elif name == "dynamics.csv":
                report = dynamics.DynamicsReport("s", [(0, "q", 1.0)])
                dynamics.write_reports_csv([report, SimpleNamespace(csv_rows=lambda: [1])], path)
            else:
                monkeypatch.setattr(cli, "oracle_coverage", lambda *args: {1: NotAscii(0.5)})
                main(["coverage", "--spec", str(write_spec(tmp_path)), "--k-values", "1",
                      "--out", str(path.parent)])
        assert os.listdir(path.parent) == ([name] if earlier else [])
        if earlier:
            assert path.read_text() == "earlier\n"

    def test_cell_whose_steps_write_failed_has_no_metrics_csv(self, tmp_path, monkeypatch,
                                                              capsys):
        # metrics.csv, which summarize reads, is written last in each cell.
        def fail(stats, path):
            raise OSError("disk full")

        monkeypatch.setattr(cli, "write_steps_jsonl", fail)
        out = tmp_path / "out"
        assert main(["train", "--spec", str(write_spec(tmp_path)), "--out", str(out),
                     "--no-timestamp"]) == 3
        assert "error: io: disk full" in capsys.readouterr().out
        assert not list(out.rglob("metrics.csv"))


class TestSummarizeCommand:
    def test_summary_has_row_per_method(self, tmp_path, capsys):
        spec_path = write_spec(tmp_path)
        out = tmp_path / "out"
        assert main(["train", "--spec", str(spec_path), "--out", str(out),
                     "--no-timestamp"]) == 0
        assert main(["summarize", "--spec", str(spec_path), "--out", str(out),
                     "--no-timestamp"]) == 0
        lines = (out / "smoke" / "summary.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[:2] == ["method", "seeds"]
        assert "pass_at_1_mean" in header and "kl_to_ref_std" in header
        assert len(lines) == 3
        assert lines[1].startswith("grpo,2") and lines[2].startswith("apo,2")

    @pytest.mark.parametrize(
        "text",
        [
            "step,pass1\n0,0.5\n",
            "step,pass1,passK,entropy,maxprob,diversity,support_mass,kl,eval_K\n0,0.5,1.0\n",
            "step,pass1,passK,entropy,maxprob,diversity,support_mass,kl,eval_K\n",
        ],
        ids=["wrong-header", "short-row", "no-records"],
    )
    def test_malformed_metrics_csv_exits_2_naming_the_file(self, tmp_path, capsys, text):
        spec_path = write_spec(tmp_path)
        out = tmp_path / "out"
        assert main(["train", "--spec", str(spec_path), "--out", str(out),
                     "--no-timestamp"]) == 0
        bad = out / "smoke" / "apo" / "2" / "metrics.csv"
        bad.write_text(text)
        capsys.readouterr()
        assert main(["summarize", "--spec", str(spec_path), "--out", str(out),
                     "--no-timestamp"]) == 2
        assert capsys.readouterr().out.startswith(f"error: config: {bad}:")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_metric_exits_2_and_writes_no_summary(self, tmp_path, capsys, value):
        spec_path = write_spec(tmp_path)
        out = tmp_path / "out"
        argv = ["--spec", str(spec_path), "--out", str(out), "--no-timestamp"]
        assert main(["train"] + argv) == 0
        summary = out / "smoke" / "summary.csv"
        summary.unlink()
        bad = out / "smoke" / "grpo" / "1" / "metrics.csv"
        lines = bad.read_text().splitlines()
        row = lines[2].split(",")
        row[3] = value  # the entropy of the second record
        bad.write_text("\n".join(lines[:2] + [",".join(row)] + lines[3:]) + "\n")
        capsys.readouterr()
        assert main(["summarize"] + argv) == 2
        assert capsys.readouterr().out.startswith(
            f"error: config: {bad}: metrics row 2 holds a non-finite value")
        assert not summary.exists()

    def test_seeds_flag_selects_the_cells_train_wrote(self, tmp_path, capsys):
        spec_path = write_spec(tmp_path)
        out = tmp_path / "out"
        argv = ["--spec", str(spec_path), "--out", str(out), "--no-timestamp"]
        assert main(["train", "--seeds", "9"] + argv) == 0
        summary = (out / "smoke" / "summary.csv").read_bytes()
        capsys.readouterr()
        assert main(["summarize", "--seeds", "9"] + argv) == 0
        assert (out / "smoke" / "summary.csv").read_bytes() == summary
        printed = capsys.readouterr().out.splitlines()
        assert printed[:-1] == summary.decode().splitlines()
        assert [row.split(",")[:2] for row in printed[1:3]] == [["grpo", "1"], ["apo", "1"]]
        # Without the flag summarize reads the spec's seeds, which train did not write.
        assert main(["summarize"] + argv) == 3

    def test_reads_each_metrics_csv_once(self, tmp_path, monkeypatch):
        spec_path = write_spec(tmp_path)
        argv = ["--spec", str(spec_path), "--out", str(tmp_path / "out"), "--no-timestamp"]
        assert main(["train"] + argv) == 0
        read = []

        def counted(path):
            read.append(path)
            return read_metrics_csv(path)

        monkeypatch.setattr("anchorlab.cli.read_metrics_csv", counted)
        assert main(["summarize"] + argv) == 0
        assert len(read) == len(set(read)) == len(SPEC["methods"]) * len(SPEC["seeds"])


def coverage_spec(tmp_path, **env):
    """A spec whose env is ``env``, with the generator's default
    coefficients for the keys it leaves out."""
    return str(write_spec(tmp_path, dict(SPEC, env=env)))


class TestCoverageCommand:
    def test_monotone_recall_and_top_v_row(self, tmp_path, capsys):
        spec = coverage_spec(tmp_path, depth=3, branching=4, num_valid_leaves=5, seed=2)
        assert main(["coverage", "--spec", spec, "--k-values", "1,2,4",
                     "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "coverage.csv").read_text().splitlines()
        assert lines[0] == "K,recall,loss_rate"
        recalls = [float(l.split(",")[1]) for l in lines[1:]]
        assert recalls == sorted(recalls)
        assert recalls[-1] == 1.0

    def test_one_row_per_distinct_k(self, tmp_path, capsys):
        spec = coverage_spec(tmp_path, depth=4, branching=8, num_valid_leaves=8, seed=0)
        assert main(["coverage", "--spec", spec, "--k-values", "4,4,1",
                     "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "coverage.csv").read_text().splitlines()
        assert [l.split(",")[0] for l in lines] == ["K", "1", "4"]
        assert capsys.readouterr().out.splitlines() == lines

    def test_null_env_seed_reports_the_seed_0_tree(self, tmp_path, capsys):
        env = json.loads(SHIPPED_SPEC.read_text())["env"]
        assert env["seed"] is None
        printed = []
        for spec in (str(SHIPPED_SPEC), coverage_spec(tmp_path, **dict(env, seed=0))):
            assert main(["coverage", "--spec", spec, "--k-values", "1,2,4,8"]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]

    @pytest.mark.parametrize("flag, value", [
        ("--depth", "4"), ("--branching", "8"), ("--leaves", "8"), ("--concentration", "1.5"),
        ("--noise", "0.5"), ("--seed", "0")])
    def test_removed_tree_flag_exits_2_and_writes_nothing(self, tmp_path, monkeypatch, capsys,
                                                         flag, value):
        # The spec's env is the only name of a tree: a tree flag is unknown.
        monkeypatch.chdir(tmp_path)
        spec = write_spec(tmp_path)
        for argv in (["coverage", flag, value],
                     ["coverage", "--spec", str(spec), flag, value, "--out", "out"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        printed = capsys.readouterr()
        assert printed.out == ""
        assert f"unrecognized arguments: {flag} {value}" in printed.err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]


class TestGradcheckCommand:
    def test_exit_zero_and_reports_all_kernels(self, capsys):
        assert main(["gradcheck", "--cases", "200"]) == 0
        out = capsys.readouterr().out
        names = ["grad_log_prob", "grad_prob", "grad_support_mass", "grad_anchor_ratio",
                 "kl_penalty"] + [f"surrogate_{m}" for m in METHODS]
        assert [line.split(":")[0] for line in out.splitlines()] == sorted(names)
        assert all(line.endswith("[ok]") for line in out.splitlines())

    def test_suite_values_below_tolerance(self):
        worst = gradient_check_suite(200, seed=1)
        assert worst and all(v < 1e-6 for v in worst.values())


class TestDynamicsCommand:
    def test_csv_written(self, tmp_path):
        assert main(["dynamics", "--out", str(tmp_path), "--steps", "30"]) == 0
        lines = (tmp_path / "dynamics.csv").read_text().splitlines()
        assert lines[0] == "scenario,step,quantity,value"
        scenarios = {l.split(",")[0] for l in lines[1:]}
        assert {"passive_suppression", "vanishing_recovery", "redistribution",
                "collapse_grpo", "collapse_apo"} <= scenarios
