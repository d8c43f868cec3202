"""The bound of every config value, at the bound and one step past it.

Each row names a field of ``MethodConfig``, ``TrainConfig`` or
``EnvConfig``, values that must be accepted (the bound itself among them),
the first value out of range and the exact message it raises. The table is
pinned to ``dataclasses.fields``: a new field without a row, or a row for a
field that is gone, fails the test.
"""

import dataclasses
import math

import pytest

from anchorlab.env import EnvConfig
from anchorlab.objectives import MethodConfig
from anchorlab.trainer import TrainConfig

TINY = 5e-324  # the smallest positive float64

# Base arguments each row varies one field of.
BASE = {
    MethodConfig: {},
    TrainConfig: {},
    EnvConfig: {"depth": 2, "branching": 3, "num_valid_leaves": 2},
}

# (config, field, kind, accepted values, first value out of range, message)
ROWS = [
    (MethodConfig, "clip_eps", float, [TINY], 0.0, "clip_eps must be > 0, got 0.0"),
    (MethodConfig, "push_coef", float, [TINY], 0.0, "push_coef must be > 0, got 0.0"),
    (MethodConfig, "pull_coef", float, [0.0, 0], -TINY, "pull_coef must be >= 0, got -5e-324"),
    (MethodConfig, "anchor_k", int, [1], 0, "anchor_k must be >= 1, got 0"),
    (MethodConfig, "kl_coef", float, [0.0], -TINY, "kl_coef must be >= 0, got -5e-324"),
    (MethodConfig, "learning_rate", float, [TINY], 0, "learning_rate must be > 0, got 0"),
    (TrainConfig, "total_steps", int, [0], -1, "total_steps must be >= 0, got -1"),
    (TrainConfig, "groups_per_step", int, [1], 0, "groups_per_step must be >= 1, got 0"),
    (TrainConfig, "inner_epochs", int, [1], 0, "inner_epochs must be >= 1, got 0"),
    (TrainConfig, "eval_every", int, [1], 0, "eval_every must be >= 1, got 0"),
    (TrainConfig, "eval_samples_k", int, [2], 1, "eval_samples_k must be >= 2, got 1"),
    # Its upper bound, the tree's branching, is checked with the spec
    # (tests/test_cli.py::test_bad_train_value_exits_2_before_any_cell).
    (TrainConfig, "support_k", int, [1, 3, None], 0, "support_k must be >= 1, got 0"),
    (TrainConfig, "group_size", int, [2], 1, "group_size must be >= 2, got 1"),
    (TrainConfig, "adv_eps", float, [TINY], -1.5, "adv_eps must be > 0, got -1.5"),
    (EnvConfig, "depth", int, [1], 0, "depth must be >= 1, got 0"),
    (EnvConfig, "branching", int, [2], 1, "branching must be >= 2, got 1"),
    (EnvConfig, "num_valid_leaves", int, [1, 9], 0, "num_valid_leaves must be in [1, 9], got 0"),
    (EnvConfig, "ref_concentration", float, [0.0], -TINY,
     "ref_concentration must be >= 0, got -5e-324"),
    (EnvConfig, "ref_noise", float, [0.0], -TINY, "ref_noise must be >= 0, got -5e-324"),
    (EnvConfig, "seed", int, [0], -1, "seed must be >= 0, got -1"),
]

# Fields with no bound of their own: the method name must be one of
# METHODS (tests/test_objectives.py).
UNBOUNDED = {
    MethodConfig: {"method"},
    TrainConfig: set(),
    EnvConfig: set(),
}

IDS = [f"{cls.__name__}.{name}" for cls, name, *_ in ROWS]


def make(cls, name, value):
    return cls(**dict(BASE[cls], **{name: value}))


@pytest.mark.parametrize("cls", list(BASE), ids=lambda c: c.__name__)
def test_every_field_has_a_row(cls):
    rows = {name for c, name, *_ in ROWS if c is cls}
    assert rows | UNBOUNDED[cls] == {f.name for f in dataclasses.fields(cls)}
    assert not rows & UNBOUNDED[cls]


@pytest.mark.parametrize("cls, name, kind, accepted, bad, message", ROWS, ids=IDS)
def test_bound_accepted_first_value_past_it_rejected(cls, name, kind, accepted, bad, message):
    for value in accepted:
        assert getattr(make(cls, name, value), name) == value
    with pytest.raises(ValueError) as info:
        make(cls, name, bad)
    assert str(info.value) == message


@pytest.mark.parametrize("cls, name, kind, accepted, bad, message", ROWS, ids=IDS)
def test_wrong_types_rejected(cls, name, kind, accepted, bad, message):
    if kind is int:
        for value in (True, 4.0, math.nan):
            with pytest.raises(TypeError) as info:
                make(cls, name, value)
            assert str(info.value) == f"{name} must be an integer, got {value!r}"
    else:
        for value in (True, "1"):
            with pytest.raises(TypeError) as info:
                make(cls, name, value)
            assert str(info.value) == f"{name} must be a number, got {value!r}"
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError) as info:
                make(cls, name, value)
            assert str(info.value) == f"{name} must be finite, got {value!r}"
