import json
import os

import pytest

from anchorlab.cli import (
    ConfigError,
    gradient_check_suite,
    load_spec,
    main,
    spec_from_dict,
    spec_to_dict,
)

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


class TestSpecParsing:
    def test_round_trip(self):
        spec = spec_from_dict(SPEC)
        assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_duplicate_methods_rejected(self):
        bad = dict(SPEC, methods=[{"method": "grpo"}, {"method": "grpo"}])
        with pytest.raises(ConfigError):
            spec_from_dict(bad)

    def test_empty_seeds_rejected(self):
        with pytest.raises(ConfigError):
            spec_from_dict(dict(SPEC, seeds=[]))

    def test_unknown_train_key_rejected(self):
        with pytest.raises(ConfigError):
            spec_from_dict(dict(SPEC, train={"total_steps": 1, "bogus": 2}))

    def test_bad_json_raises_config_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_spec(path)


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

    def test_env_var_seed_override(self, tmp_path, monkeypatch):
        spec_path = write_spec(tmp_path)
        out = tmp_path / "out"
        monkeypatch.setenv("ANCHORLAB_SEED", "9")
        assert main([
            "train", "--spec", str(spec_path), "--out", str(out), "--no-timestamp",
        ]) == 0
        assert (out / "smoke" / "apo" / "9").is_dir()

    def test_jobs_flag_matches_serial_output(self, tmp_path):
        spec_path = write_spec(tmp_path)
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        assert main(["train", "--spec", str(spec_path), "--out", str(serial),
                     "--no-timestamp"]) == 0
        assert main(["train", "--spec", str(spec_path), "--out", str(parallel),
                     "--no-timestamp", "--jobs", "4"]) == 0
        rel = "smoke/apo/2/metrics.csv"
        assert (serial / rel).read_bytes() == (parallel / rel).read_bytes()

    def test_jobs_2_writes_the_bytes_of_jobs_1(self, tmp_path):
        # Cells run numpy in pool threads; every output but the wall clock
        # must be the serial run's, for every method.
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
                        del line["wallclock_ms"]
                    steps.append([json.dumps(line) for line in lines])
                assert steps[0] == steps[1] and len(steps[0]) == SPEC["train"]["total_steps"]

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


class TestMalformedInput:
    @pytest.mark.parametrize(
        "argv, env",
        [
            (["train", "--seeds", "a"], {}),
            (["summarize", "--seeds", "a"], {}),
            (["train"], {"ANCHORLAB_SEED": "x"}),
            (["coverage", "--k-values", "0,9"], {}),
            (["coverage", "--k-values", "x"], {}),
            (["coverage", "--depth", "0"], {}),
            (["train", "--jobs", "0"], {}),
            (["train", "--jobs", "-3"], {}),
        ],
        ids=["train-seeds", "summarize-seeds", "env-seed", "k-values-range", "k-values-text",
             "coverage-depth", "jobs-0", "jobs-negative"],
    )
    def test_exits_2_with_config_error(self, tmp_path, monkeypatch, capsys, argv, env):
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        if argv[0] != "coverage":
            argv = argv + ["--spec", str(write_spec(tmp_path)), "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert capsys.readouterr().out.startswith("error: config:")
        assert not (tmp_path / "out").exists()

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


class TestCoverageCommand:
    def test_monotone_recall_and_top_v_row(self, tmp_path, capsys):
        assert main([
            "coverage", "--depth", "3", "--branching", "4", "--leaves", "5",
            "--seed", "2", "--k-values", "1,2,4", "--out", str(tmp_path),
        ]) == 0
        lines = (tmp_path / "coverage.csv").read_text().splitlines()
        assert lines[0] == "K,recall,loss_rate"
        recalls = [float(l.split(",")[1]) for l in lines[1:]]
        assert recalls == sorted(recalls)
        assert recalls[-1] == 1.0


class TestGradcheckCommand:
    def test_exit_zero_and_reports_all_kernels(self, capsys):
        assert main(["gradcheck", "--cases", "200"]) == 0
        out = capsys.readouterr().out
        for name in ("grad_log_prob", "grad_prob", "grad_support_mass",
                      "grad_anchor_ratio", "kl_penalty", "surrogate_apo"):
            assert name in out

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
