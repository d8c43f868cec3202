"""Numeric renderings of the collapse-and-recovery propositions.

The formulas here are written out locally on purpose: tests compare them
against the gradient kernels as two independent code paths. The bandit
harness is a depth-1 tree whose one context is the bandit, trained by
:func:`~anchorlab.trainer.train_step` itself, so collapse trajectories come
from the update the sweeps train with.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .anchor import top_k
from .env import ReasoningTree
from .metrics import atomic_open
from .objectives import MethodConfig
from .policy import LogitTable, StackedTable, entropy, softmax
from .trainer import TrainConfig, train_step


@dataclass
class DynamicsReport:
    scenario: str
    records: list[tuple[int, str, float]] = field(default_factory=list)

    def add(self, step: int, quantity: str, value: float) -> None:
        value = float(value)
        if not np.isfinite(value):
            raise ValueError(f"non-finite record: {self.scenario}/{quantity}@{step}")
        self.records.append((int(step), quantity, value))

    def series(self, quantity: str) -> list[tuple[int, float]]:
        return [(s, v) for s, q, v in self.records if q == quantity]

    def csv_rows(self) -> list[str]:
        return [f"{self.scenario},{s},{q},{v!r}" for s, q, v in self.records]


def write_reports_csv(reports, path) -> None:
    """Write every report's rows, replacing ``path`` whole (:func:`atomic_open`)."""
    with atomic_open(path) as fh:
        fh.write("scenario,step,quantity,value\n")
        for report in reports:
            for row in report.csv_rows():
                fh.write(row + "\n")


def passive_suppression_step(
    logits: np.ndarray,
    sampled: int,
    valid: int,
    advantage: float,
    eta: float,
) -> float:
    """Logit change of an unsampled valid token when a competitor is rewarded.

    Delta z_valid = -eta * A * pi(valid): strictly negative whenever the
    valid token still has mass, regardless of its validity.
    """
    if sampled == valid:
        raise ValueError("the valid token must differ from the sampled token")
    if advantage <= 0:
        raise ValueError(f"advantage must be > 0, got {advantage}")
    pi_valid = float(softmax(logits)[valid])
    return -eta * advantage * pi_valid


def vanishing_recovery_sweep(pi_valid_values, penalty: float, eta: float) -> DynamicsReport:
    """Recovery update Delta z = eta * C * pi across tail probabilities.

    Verifies the linear coupling (Delta/pi constant to 1e-12) and that a
    more probable token always receives the larger recovery update - the
    rich-get-richer redistribution that starves the tail.
    """
    if penalty <= 0:
        raise ValueError(f"penalty must be > 0, got {penalty}")
    values = [float(p) for p in pi_valid_values]
    if any(not 0.0 <= p < 1.0 for p in values):
        raise ValueError("pi_valid values must lie in [0, 1)")
    report = DynamicsReport("vanishing_recovery")
    deltas = []
    for i, p in enumerate(values):
        delta = eta * penalty * p
        deltas.append(delta)
        report.add(i, "pi_valid", p)
        report.add(i, "delta_z", delta)
    ratios = [d / p for d, p in zip(deltas, values) if p > 0.0]
    if ratios and max(ratios) - min(ratios) > 1e-12:
        raise AssertionError("recovery update is not linear in pi_valid")
    for (pa, da) in zip(values, deltas):
        for (pb, db) in zip(values, deltas):
            if pa > pb and not da > db:
                raise AssertionError("dominant token did not receive the larger update")
    return report


def redistribution_compare(dist, error_token: int, anchor_set) -> DynamicsReport:
    """Side-by-side recovery gradients: proportional squeezing vs anchored
    support inflation.

    Records |gradient| per token for both mechanisms and checks that (a) the
    squeezing signal dies with the error probability, (b) the anchored signal
    persists while safe mass is below 1, and (c) both inflate in-set tokens
    proportionally to their current probabilities.
    """
    p = np.asarray(dist, dtype=np.float64)
    members = sorted(set(int(k) for k in anchor_set))
    if error_token in members:
        raise ValueError("error_token must not belong to the anchor set")
    p_err = float(p[error_token])
    p_safe = float(p[members].sum())
    report = DynamicsReport("redistribution")

    pg = np.empty_like(p)
    apo = np.empty_like(p)
    for k in range(p.size):
        # Squeezing: minimizing log pi(err) moves competitor k by pi(err)*pi(k).
        pg[k] = p_err * (1.0 - p_err) if k == error_token else p_err * p[k]
        # Anchored: maximizing safe mass moves in-set k by pi(k)*(1 - P_safe).
        apo[k] = p[k] * (1.0 - p_safe) if k in members else p[k] * p_safe
        report.add(k, "pg_grad_abs", abs(pg[k]))
        report.add(k, "apo_grad_abs", abs(apo[k]))

    competitors = [k for k in range(p.size) if k != error_token]
    if max(abs(pg[k]) for k in competitors) > p_err:
        raise AssertionError("squeezing gradient exceeded its pi(err) envelope")
    if p_safe < 1.0 and any(p[k] > 0 and apo[k] <= 0.0 for k in members):
        raise AssertionError("anchored recovery signal vanished below saturation")
    for a in members:
        for b in members:
            # Structure preservation: gradient ratio equals probability ratio.
            if p[b] > 0.0 and abs(apo[a] * p[b] - apo[b] * p[a]) > 1e-12:
                raise AssertionError("anchored inflation broke the probability ranking")
    return report


def collapse_trajectory(
    logits,
    valid_set,
    cfg: MethodConfig,
    steps: int,
    rng: np.random.Generator,
) -> DynamicsReport:
    """Single-context bandit: reward 1 iff the sampled token is valid.

    The bandit is a depth-1 tree with reference ``logits``, so each step is
    one :func:`~anchorlab.trainer.train_step` with one group of
    ``cfg.group_size`` rollouts and one pass. Records per step: each valid
    token's probability, the entropy, and the mass on the reference Top-K
    manifold.
    """
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 1 or z.size < 2:
        raise ValueError(f"logits must be a 1-D vector of at least 2 tokens, got shape {z.shape}")
    valid = sorted(set(int(t) for t in valid_set))
    if not valid or valid[0] < 0 or valid[-1] >= z.size:
        raise ValueError(f"valid_set must be a nonempty subset of [0, {z.size}), got {valid}")
    tree = ReasoningTree(1, z.size, frozenset((t,) for t in valid), LogitTable(z[None]))
    table = StackedTable(tree.ref_policy, 1)  # a stack of one cell: key 0 is the root
    train_cfg = TrainConfig(method_config=cfg, groups_per_step=1, inner_epochs=1)
    manifold = list(top_k(tree.ref_policy.dist(tree.ROOT), cfg.anchor_k))
    report = DynamicsReport(f"collapse_{cfg.method}")

    for step in range(steps + 1):
        dist = table.dist(tree.ROOT)
        for t in valid:
            report.add(step, f"pi_valid_{t}", dist[t])
        report.add(step, "entropy", entropy(dist))
        report.add(step, "p_safe", float(dist[manifold].sum()))
        if step < steps:
            train_step(table, tree, [train_cfg], [rng], step + 1)
    return report
