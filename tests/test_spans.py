"""The benchmark's traced run wraps module attributes of anchorlab by name
(``perfbench/spans.py``). A renamed or inlined function silently turns its
layer into an absent one reported as 0, so these tests pin every target."""

import importlib
import importlib.util
import json
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# Targets already absent: the trainer no longer has these module attributes.
# sample_group went when a step came to draw all its groups with one rollout
# call, so trainer.useful_group_frac reads 0 until its span is re-pointed.
KNOWN_ABSENT = {
    ("anchorlab.trainer", "snapshot"),
    ("anchorlab.trainer", "method_token_update"),
    ("anchorlab.trainer", "sample_group"),
}


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves():
    spans = load_spans()
    missing = {
        (module, attr)
        for module, attr, _, _ in spans.TARGETS
        if not hasattr(importlib.import_module(module), attr)
    }
    assert missing == KNOWN_ABSENT


SPEC = {
    "name": "traced",
    "env": {"depth": 2, "branching": 3, "num_valid_leaves": 2, "seed": 4},
    "methods": [{"method": "apo", "anchor_k": 2}],
    "seeds": [1],
    "train": {"total_steps": 4, "groups_per_step": 2, "inner_epochs": 2,
              "eval_every": 2, "eval_samples_k": 8},
}


def traced_train(tmp_path, spec):
    """Per-layer metrics of a traced serial ``train`` of ``spec``, and the tracer."""
    from anchorlab.cli import main

    spans = load_spans()
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = tracer.root(main, ["train", "--spec", str(path), "--out", str(tmp_path / "out"),
                                  "--no-timestamp"])
    finally:
        tracer.uninstall()
    assert code == 0
    return spans.layer_metrics(tracer, jobs=1), tracer


def test_traced_train_reports_the_evaluation_and_update_spans(tmp_path):
    layers, tracer = traced_train(tmp_path, SPEC)
    assert layers["env.rollout.eval.calls"] == 3
    assert layers["env.rollout.train.calls"] == SPEC["train"]["total_steps"]
    assert layers["metrics.self_bleu.s"] > 0
    assert layers["trainer.apply_token_batch.calls"] > 0
    assert layers["trainer.tokens"] > 0
    assert sorted(tracer.absent) == ["objectives.method_token_update", "policy.snapshot",
                                     "trainer.sample_group"]


def test_traced_train_counts_one_tree_build_per_env(tmp_path):
    # Both cells train on the spec's one env, so the sweep builds its tree
    # once, through the trainer.generate_tree attribute the span wraps.
    spec = dict(SPEC, methods=[{"method": "grpo"}, {"method": "apo", "anchor_k": 2}])
    layers, _ = traced_train(tmp_path, spec)
    assert layers["env.generate_tree.calls"] == 1
    assert layers["env.generate_tree.s"] > 0
