"""On-policy training loop: grouped rollouts, token-mean updates, evaluation.

Cells train in stacks: every cell of a stack shares one tree, one
``group_size``, ``groups_per_step``, ``inner_epochs`` and evaluation
schedule, and the stack's cells train in lockstep on one
:class:`~anchorlab.policy.StackedTable`, cell s reading and writing its
own rows of it. A step's numpy calls are made once for the whole stack,
not once per cell, because at a step's array sizes the call, not the
arithmetic, is the cost. A single cell is a stack of one.

Each outer step draws every cell's ``groups_per_step`` groups of
``group_size`` rollouts from the tree root with one ``rollout`` call:
cell s draws its own ``(G*n, D)`` uniform block from its own training
stream, and the call returns ``(S*G*n, D)`` token and context arrays
sampled with the live policies and the ``(S*G*n, D, V)`` policy rows they
were drawn from; no policy changes while they are drawn. Cell s's group g
is rows (s*G + g)*n onwards, the rows G separate calls of that cell would
draw. Group-relative advantages come from one call on the ``(S*G, n)``
rewards, with each cell's ``adv_eps`` as a per-row array. Groups whose
advantages are all zero are dropped, and the kept tokens of all cells
form one :class:`TokenBatch`, the step's plan: it holds everything the
passes need that depends only on the batch, so a pass only gathers the
live rows and combines them. Its old rows are the kept groups' rollout
rows, not a second softmax; with them come each token's flat index into
the ``(N, V)`` rows and its old probability. The reference rows are taken
with one softmax per step, and only at the tokens of cells whose method
reads them (the KL methods and apo). For apo the reference half of every
token's anchor is built once, as fixed-width gather tables
(:func:`~anchorlab.objectives.anchor_reference`); no table is copied.
Then the step performs ``inner_epochs`` passes in which every sampled
token contributes one surrogate gradient. The first pass reads the old
rows as the live policies', since no policy has changed since the
rollout; only later passes take the stack's softmax, once per pass.
Gradients are averaged over each cell's tokens (token-mean) and applied
as a plain SGD ascent step on the logits. Each pass is dense: one
:func:`~anchorlab.objectives.token_gradients` call per run of adjacent
cells with equal methods, over that run's rows, then one ``np.bincount``
over the batch's flat bin ids sums the gradients per key, each key's row
is scaled by its cell's ``lr / N_s``, and one ``add_to_logits`` writes
the stack; the scalar ``method_token_update`` is the oracle it is tested
against, not called here. Every numpy call on this path goes straight to
C (a ufunc, its ``reduce``, or an array method), not through numpy's
Python wrappers such as ``np.mean`` or ``ndarray.sum``. Evaluation, too,
takes one :func:`~anchorlab.metrics.evaluate` call per stack, which reads
the table by key and computes each metric once for the whole stack.

The anchor's reference half is built per step, over the batch's rows, and
not once per tree: ranking every row of a large tree's reference costs
more than a short cell spends on anchors. For the 37,449-row deep_sweep
tree a softmax and stable argsort of the whole reference takes 11-12 ms;
the 10 steps of an apo cell there spend under 0.5 ms building anchors.

Seeding: the experiment seed feeds ``numpy.random.SeedSequence(seed)``; its
two spawned children drive the training stream and the evaluation stream,
so evaluation never perturbs training randomness.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields

import numpy as np

from .env import EnvConfig, ReasoningTree, generate_tree, rollout
from .metrics import MetricRecord, atomic_open, evaluate
from .objectives import (
    REFERENCE_METHODS,
    MethodConfig,
    anchor_reference,
    group_advantages,
    token_gradients,
)
from .policy import LogitTable, StackedTable, check_int, distinct


@dataclass
class TrainConfig:
    method_config: MethodConfig = field(default_factory=MethodConfig)
    env: EnvConfig = field(default_factory=lambda: EnvConfig(4, 8, 8))
    total_steps: int = 300
    groups_per_step: int = 4
    inner_epochs: int = 2
    eval_every: int = 25
    eval_samples_k: int = 64
    support_k: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        for name, low in (("total_steps", 0), ("groups_per_step", 1), ("inner_epochs", 1),
                          ("eval_every", 1), ("eval_samples_k", 2), ("seed", 0)):
            check_int(name, getattr(self, name), low)
        if self.support_k is not None:
            check_int("support_k", self.support_k)
            if not 1 <= self.support_k <= self.env.branching:
                raise ValueError(
                    f"support_k must be in [1, {self.env.branching}], got {self.support_k}"
                )


@dataclass
class StepStats:
    """One outer step of one cell. ``wallclock_ms`` times the whole
    :func:`train_step` of the cell's stack, ``rollout_ms`` its rollout, and
    ``update_ms`` the rest up to the end of the last pass (advantages, the
    batch and its passes), so the two sum to at most ``wallclock_ms``;
    ``eval_ms`` times the stack's evaluation after the step, 0.0 on steps
    without one. The cells of a stack share the step and its evaluation, so
    they share these four. ``frac_clipped_pos`` and ``frac_clipped_neg``
    split ``frac_clipped`` by the sign of the advantage: the clipped share
    of the positive-advantage (negative-advantage) token updates, 0.0 when
    the step has none."""

    step: int
    mean_reward: float
    frac_clipped: float
    degenerate_anchors: int
    wallclock_ms: float
    rollout_ms: float
    update_ms: float
    eval_ms: float = 0.0
    frac_clipped_pos: float = 0.0
    frac_clipped_neg: float = 0.0


class TokenBatch:
    """Every token of the kept groups of a stack's cells, flattened in cell,
    group, rollout and step order: its context, token and advantage, and
    ``old``, the ``(N, V)`` sampling-policy rows the rollout drew each token
    from. ``counts[s]`` is the number of tokens of cell s, whose tokens
    come s-th, and ``mcfgs[s]`` its method. On construction it records
    everything a pass needs that depends only on the batch: each token's
    cell ``cell``, the sorted distinct keys ``keys`` of the stacked table
    (``cell * C + ctx``) and each token's position ``at`` in them, the flat
    ids ``bins`` of each token's V cells in the ``(U, V)`` block of per-key
    sums, each token's flat index ``flat`` into the ``(N, V)`` rows and its
    old probability ``old_tok``, each key's step size ``scale`` (its cell's
    ``learning_rate / N_s`` as a ``(U, 1)`` column), and ``runs``: one
    ``(lo, hi, cell, flat, ref, anchors)`` per run of adjacent cells with
    equal :class:`~anchorlab.objectives.MethodConfig` and at least one
    token, covering tokens ``lo:hi``; ``cell`` is its first cell, ``flat``
    the run's flat token ids into its own rows, ``ref`` the reference rows
    at its tokens' contexts when its method reads them (None for grpo and
    nsr, so their tokens take no reference row) and, for apo, ``anchors``
    its tokens' anchor gather tables
    (:func:`~anchorlab.objectives.anchor_reference`; None otherwise). So a
    pass only gathers the live rows and combines them."""

    __slots__ = ("ctx", "tok", "adv", "old", "cell", "keys", "at", "bins", "flat", "old_tok",
                 "scale", "runs")

    def __init__(self, ctx: np.ndarray, tok: np.ndarray, adv: np.ndarray, old: np.ndarray,
                 ref_policy: LogitTable, mcfgs: list[MethodConfig], counts: list[int]):
        self.ctx, self.tok, self.adv, self.old = ctx, tok, adv, old
        c, v = len(ref_policy), old.shape[1]
        self.cell = np.arange(len(counts)).repeat(counts)
        key = self.cell * c + ctx
        self.keys = distinct(key)
        self.at = self.keys.searchsorted(key)
        self.bins = (self.at[:, None] * v + np.arange(v)).ravel()
        self.flat = np.arange(tok.size) * v + tok
        self.old_tok = old.take(self.flat)
        key_cell, key_ctx = np.divmod(self.keys, c)
        # Python's float quotient is the scalar lr / N bit for bit.
        self.scale = np.array([m.learning_rate / k if k else 0.0
                               for m, k in zip(mcfgs, counts)]).take(key_cell)[:, None]
        # One reference softmax, at the keys of the cells that read it.
        reads = [m.method in REFERENCE_METHODS for m in mcfgs]
        if any(reads):
            read = np.array(reads).take(key_cell)
            ref_rows, ref_at = ref_policy.dist(key_ctx.compress(read)), read.cumsum() - 1
        self.runs = []
        lo = hi = first = 0
        for s, (m, k) in enumerate(zip(mcfgs, counts)):
            hi += k
            if s + 1 < len(mcfgs) and mcfgs[s + 1] == m:
                continue
            if hi > lo:
                ref = ref_rows.take(ref_at.take(self.at[lo:hi]), axis=0) if reads[s] else None
                anchors = (anchor_reference(ref, tok[lo:hi], m.anchor_k)
                           if m.method == "apo" else None)
                self.runs.append((lo, hi, first, self.flat[lo:hi] - lo * v, ref, anchors))
            lo, first = hi, s + 1

    def __len__(self) -> int:
        return self.ctx.size


def apply_token_batch(
    table: StackedTable,
    tree: ReasoningTree,
    mcfgs: list[MethodConfig],
    batch: TokenBatch,
    live: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One pass over a stack's batch: each cell's token-mean gradient,
    as a single ascent step.

    Every token's gradient comes from one :func:`token_gradients` call per
    run of adjacent cells with equal methods, over the run's rows, with
    the batch's flat token ids and old token probabilities, and the run's
    reference rows and anchor tables. One ``np.bincount`` over the batch's
    bins sums the gradients per key, adding each bin's terms in batch
    order, and the U touched rows get their cell's ``lr / N_s`` times their
    sum (a per-row product is the scalar product bit for bit), through one
    :meth:`~anchorlab.policy.StackedTable.add_to_logits` call.
    ``bincount`` starts a sum at +0.0 where ``np.add.at`` into ``-0.0``
    would start at -0.0; the two differ only in a cell whose every term is
    -0.0, and then only in the sign of a zero, which changes a logit only
    if the logit is -0.0 itself (a generated tree holds none, and ``z + d``
    is -0.0 only when both are).
    ``live`` is the table's rows at the batch's tokens when the caller
    already holds them (``batch.old`` while the table is still the one
    sampled from); otherwise they are computed. Returns each token's
    clipped and degenerate-anchor flags; a token with a zero advantage is
    never clipped. Replicating a cell's tokens m times leaves the applied
    update unchanged (sums scale by m, the mean does not). ``tree`` is not
    read, since the batch holds its reference rows; the argument keeps the
    batch fourth, where perfbench's traced run counts its tokens.
    """
    if not len(batch):
        none = np.zeros(0, dtype=bool)
        return none, none
    keys = batch.keys
    u, v = keys.size, table.vocab_size
    if live is None:
        live = table.dist(keys).take(batch.at, axis=0)
    parts = [
        token_gradients(live[lo:hi], batch.old_tok[lo:hi], ref, flat, batch.adv[lo:hi], mcfgs[s],
                        anchors)
        for lo, hi, s, flat, ref, anchors in batch.runs
    ]
    grads, clipped, degenerate = (parts[0] if len(parts) == 1
                                  else [np.concatenate(p) for p in zip(*parts)])
    block = np.bincount(batch.bins, grads.ravel(), u * v).reshape(u, v)
    block *= batch.scale
    table.add_to_logits(keys, block)
    return clipped, degenerate


def train_step(
    table: StackedTable,
    tree: ReasoningTree,
    cfgs: list[TrainConfig],
    rngs: list[np.random.Generator],
    step: int = 0,
) -> list[StepStats]:
    """One outer optimization step of every cell of a stack (mutates
    ``table`` in place): cell s is ``table``'s cell s, trained by
    ``cfgs[s]`` from the training stream ``rngs[s]``. The cells share
    ``groups_per_step``, ``inner_epochs`` and ``group_size``. Returns each
    cell's statistics, in order."""
    t0 = time.perf_counter()
    mcfgs = [cfg.method_config for cfg in cfgs]
    cells, g, n, d = len(cfgs), cfgs[0].groups_per_step, mcfgs[0].group_size, tree.depth
    r = g * n
    u = np.empty((cells * r, d))
    for s, rng in enumerate(rngs):
        rng.random(out=u[s * r:(s + 1) * r])
    base = np.arange(0, cells * table.contexts, table.contexts).repeat(r)
    tokens, contexts, rewards, rows = rollout(tree, table, u, base)
    t1 = time.perf_counter()
    adv_eps = np.array([m.adv_eps for m in mcfgs]).repeat(g)[:, None]
    adv = group_advantages(rewards.reshape(cells * g, n), adv_eps)
    # A zero-variance group has all-zero advantages and no learning signal.
    kept = np.logical_or.reduce(adv != 0.0, axis=1)
    counts = (np.add.reduce(kept.reshape(cells, g), axis=1) * (n * d)).tolist()
    v = table.vocab_size
    batch = TokenBatch(
        contexts.reshape(cells * g, -1).compress(kept, axis=0).ravel(),
        tokens.reshape(cells * g, -1).compress(kept, axis=0).ravel(),
        adv.compress(kept, axis=0).ravel().repeat(d),
        rows.reshape(cells * g, -1, v).compress(kept, axis=0).reshape(-1, v),
        tree.ref_policy,
        mcfgs,
        counts,
    )

    clipped = degenerate = 0
    epochs = cfgs[0].inner_epochs
    for epoch in range(epochs):
        # Until the first pass updates it, the table is the one sampled from.
        c, dg = apply_token_batch(table, tree, mcfgs, batch, batch.old if epoch == 0 else None)
        clipped = clipped + c
        degenerate = degenerate + dg
    t2 = time.perf_counter()

    # Per cell: clipped updates of each advantage sign, degenerate anchors,
    # and tokens of each sign; exact integers in float64.
    pos, neg = batch.adv > 0.0, batch.adv < 0.0
    tallies = [np.bincount(batch.cell, w, cells).tolist()
               for w in (clipped * pos, clipped * neg, degenerate, pos, neg)]
    # The integer sums are exact, so each mean is np.mean's quotient bit for bit.
    reward_sums = np.add.reduce(rewards.reshape(cells, r), axis=1).tolist()
    wallclock_ms = (time.perf_counter() - t0) * 1000.0
    out = []
    for s, (cp, cn, dg, n_pos, n_neg) in enumerate(zip(*tallies)):
        pos_updates, neg_updates = int(n_pos) * epochs, int(n_neg) * epochs
        out.append(StepStats(
            step=step,
            mean_reward=reward_sums[s] / r,
            frac_clipped=int(cp + cn) / max(1, counts[s] * epochs),
            degenerate_anchors=int(dg),
            wallclock_ms=wallclock_ms,
            rollout_ms=(t1 - t0) * 1000.0,
            update_ms=(t2 - t1) * 1000.0,
            frac_clipped_pos=int(cp) / pos_updates if pos_updates else 0.0,
            frac_clipped_neg=int(cn) / neg_updates if neg_updates else 0.0,
        ))
    return out


def initial_policy(tree: ReasoningTree) -> LogitTable:
    """Training starts from a copy of the reference (the pre-RL model)."""
    return tree.ref_policy.copy()


def private_rows(tree: ReasoningTree, cfg: TrainConfig) -> int:
    """The most contexts one cell's run can update: a step updates only
    contexts its G*n rollouts visit, at most G*n of the B**l at level l."""
    visits = cfg.total_steps * cfg.groups_per_step * cfg.method_config.group_size
    return sum(min(tree.branching**level, visits) for level in range(tree.depth))


# The TrainConfig values the cells of a stack share.
_SHARED = ("env", "total_steps", "groups_per_step", "inner_epochs", "eval_every",
           "eval_samples_k", "support_k")


def run_experiment(
    cfgs: list[TrainConfig],
    tree: ReasoningTree | None = None,
) -> list[tuple[list[MetricRecord], list[StepStats]]]:
    """Full deterministic run of a stack of cells trained in lockstep on one
    tree: returns each cell's metric records (step 0, every ``eval_every``
    steps, and the final step) and per-step statistics, in the order of
    ``cfgs``. The cells must share their env, ``total_steps``,
    ``groups_per_step``, ``inner_epochs``, ``eval_every``,
    ``eval_samples_k``, ``support_k`` and ``group_size``; a cell alone is
    a stack of one. Each evaluation is one :func:`evaluate` call for the
    whole stack. The stacked table reserves room for the most
    rows the cells can update (:func:`private_rows`), so it never grows.
    """
    first = cfgs[0]
    for cfg in cfgs[1:]:
        for name in _SHARED:
            if getattr(cfg, name) != getattr(first, name):
                raise ValueError(f"the cells of a stack must share {name}")
        if cfg.method_config.group_size != first.method_config.group_size:
            raise ValueError("the cells of a stack must share group_size")
    if tree is None:
        tree = generate_tree(first.env)
    streams = [np.random.SeedSequence(cfg.seed).spawn(2) for cfg in cfgs]
    train_rngs = [np.random.default_rng(train_ss) for train_ss, _ in streams]
    eval_rngs = [np.random.default_rng(eval_ss) for _, eval_ss in streams]

    table = StackedTable(tree.ref_policy, len(cfgs), len(cfgs) * private_rows(tree, first))
    k, support_k = first.eval_samples_k, first.support_k
    records = [[rec] for rec in evaluate(table, tree, 0, k, eval_rngs, support_k)]
    stats: list[list[StepStats]] = [[] for _ in cfgs]
    for step in range(1, first.total_steps + 1):
        step_stats = train_step(table, tree, cfgs, train_rngs, step)
        for cell, cell_stats in zip(stats, step_stats):
            cell.append(cell_stats)
        if step % first.eval_every == 0 or step == first.total_steps:
            t0 = time.perf_counter()
            evaluated = evaluate(table, tree, step, k, eval_rngs, support_k)
            eval_ms = (time.perf_counter() - t0) * 1000.0
            for cell, rec, cell_stats in zip(records, evaluated, step_stats):
                cell.append(rec)
                cell_stats.eval_ms = eval_ms
    return list(zip(records, stats))


# One steps.jsonl line: json.dumps(vars(stats)) for ints and finite floats,
# which json writes as their repr.
_STEP_LINE = "{{" + ", ".join(f'"{f.name}": {{}}' for f in fields(StepStats)) + "}}\n"


def write_steps_jsonl(stats, path) -> None:
    """One JSON object per step, with the :class:`StepStats` fields in
    order; ``path`` is replaced whole (:func:`~anchorlab.metrics.atomic_open`).
    Every field is an int or a finite float, so each value is its repr."""
    with atomic_open(path) as fh:
        fh.write("".join(_STEP_LINE.format(*map(repr, vars(s).values())) for s in stats))
