"""On-policy training loop: grouped rollouts, token-mean updates, evaluation.

A cell is a ``(MethodConfig, seed)`` pair, and cells train in stacks:
every cell of a stack shares one tree and one :class:`TrainConfig` (the
step and evaluation schedule, group size and advantage epsilon among
them), and the stack's cells train in lockstep on one
:class:`~anchorlab.policy.StackedTable`, cell s reading and writing its
own rows of it. A step's numpy calls are made once for the whole stack,
not once per cell or per method, because at a step's array sizes the
call, not the arithmetic, is the cost. A single cell is a stack of one.
What a step reads of the cells' method configs is built once per run, as
one :class:`~anchorlab.objectives.CellMethods` of per-cell arrays, each
cell's learning rate among them.

Each outer step draws every cell's ``groups_per_step`` groups of
``group_size`` rollouts from the tree root with one ``rollout`` call:
cell s fills its own ``G*n`` rows of the step's uniform block from its
own training stream (:func:`~anchorlab.policy.uniform_block`), so cells
of equal seed draw the same uniforms whatever their methods, and the
call returns ``(S*G*n, D)`` token and key arrays sampled with the live
policies and the ``(S*G*n, D, V)`` policy rows they were drawn from; no
policy changes while they are drawn. Cell s's group g is rows
(s*G + g)*n onwards, the rows G separate calls of that cell would draw,
at cell s's keys ``s*C + ctx``. Group-relative advantages come from one call on
the ``(S*G, n)`` rewards with the schedule's ``adv_eps``. Groups whose
advantages are all zero are dropped, and the kept tokens of all cells
form one :class:`TokenBatch`, the step's plan: it holds everything the
passes need that depends only on the batch, so a pass only gathers the
live rows and combines them. Its old rows are the kept groups' rollout
rows, not a second softmax; with them come each token's flat index into
the ``(N, V)`` rows and its old probability, and each token's method
config as per-token columns: its clip bounds, and the rows, coefficients
and reference rows of the branches only some tokens take (nsr's, the KL
penalty's and apo's negative branch). The reference rows are read with
one ``dist`` call per step, at the KL and apo rows only. For the apo
rows the reference half of every anchor and its segment layout are built
once, by one :func:`~anchorlab.objectives.anchor_reference` call per
step whatever the rows' ``anchor_k``; no table is copied.
Then the step performs ``inner_epochs`` passes in which every sampled
token contributes one surrogate gradient. The first pass reads the old
rows as the live policies', since no policy has changed since the
rollout; only later passes read the stack, once per pass.
Gradients are averaged over each cell's tokens (token-mean) and applied
as a plain SGD ascent step on the logits. Each pass is dense: one
:func:`~anchorlab.objectives.token_gradients` call over every token of
the stack, whatever the cells' methods and coefficients, then one
``np.bincount`` over the batch's flat bin ids sums the gradients per key,
each key's row is scaled by its cell's ``lr / N_s``, and one
``add_to_logits`` writes the stack; the scalar ``method_token_update`` is
the oracle it is tested against, not called here. Every numpy call on this path goes straight to
C (a ufunc, its ``reduce``, or an array method), not through numpy's
Python wrappers such as ``np.mean`` or ``ndarray.sum``. Evaluation, too,
takes one :func:`~anchorlab.metrics.evaluate` call per stack, which reads
the table by key and computes each metric once for the whole stack.

The anchor's reference half is built per step, over the batch's rows, and
not once per tree: ranking every row of a large tree's reference costs
more than a short cell spends on anchors. For the 37,449-row deep_sweep
tree a softmax and stable argsort of the whole reference takes 11-12 ms;
the 10 steps of an apo cell there spend under 0.5 ms building anchors.
The reference's softmax is kept per tree only when the run can visit
every context, that is when :func:`private_rows` is C
(``total_steps * G * n >= B**(D-1)``). The stack then reserves a row for
every key and mirrors the softmax of its rows
(:class:`~anchorlab.policy.StackedTable`); the tree's reference, its
start table, reads that mirror, so every read of the policies or the
reference in a step or an evaluation is a gather, and a softmax is taken
only at the rows each pass writes. A stack that cannot hold every key
takes the softmax where it reads, since a short run on a deep tree reads
few of its contexts: deep_sweep's stacks reserve 5 x 1,033 of 5 x 37,449
rows, and mirroring them took its train call from 27.9 to 31.6 ms on a
2-vCPU VM.

Seeding: a cell's seed feeds ``numpy.random.SeedSequence(seed)``; its
two spawned children drive the training stream and the evaluation stream,
so evaluation never perturbs training randomness.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields

import numpy as np

# generate_tree is not called here: the CLI builds its trees through this
# name, which perfbench's env.generate_tree span wraps.
from .env import ReasoningTree, generate_tree, rollout  # noqa: F401
from .metrics import MetricRecord, atomic_open, evaluate
from .objectives import CellMethods, MethodConfig, group_advantages, token_gradients
from .policy import LogitTable, StackedTable, check_float, check_int, distinct, uniform_block


@dataclass
class TrainConfig:
    """The schedule every cell of a stack shares: a spec's ``train``
    section. A cell is a ``(MethodConfig, seed)`` pair. The group settings
    are part of the schedule, ``group_size`` rollouts per group and the
    ``adv_eps`` of their advantages, so cells of equal seed draw the same
    training uniforms whatever their methods."""

    total_steps: int = 300
    groups_per_step: int = 4
    inner_epochs: int = 2
    eval_every: int = 25
    eval_samples_k: int = 64
    support_k: int | None = None
    group_size: int = 8
    adv_eps: float = 1e-6

    def __post_init__(self) -> None:
        for name, low in (("total_steps", 0), ("groups_per_step", 1), ("inner_epochs", 1),
                          ("eval_every", 1), ("eval_samples_k", 2), ("group_size", 2)):
            check_int(name, getattr(self, name), low)
        check_float("adv_eps", self.adv_eps, positive=True)
        if self.support_k is not None:
            check_int("support_k", self.support_k, 1)


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
    group, rollout and step order: its key ``key`` in the stacked table
    (:func:`~anchorlab.env.rollout`'s ``s*C + ctx`` for a token of cell s),
    token and advantage, and ``old``, the ``(N, V)`` sampling-policy rows
    the rollout drew each token from. ``counts[s]`` is the number of tokens
    of cell s, whose tokens come s-th, and ``methods`` the cells'
    :class:`~anchorlab.objectives.CellMethods`. On construction it records
    everything a pass needs that depends only on the batch: each token's
    cell ``cell``, the sorted distinct keys ``keys`` and each token's
    position ``at`` in them, the flat ids ``bins`` of each token's V cells
    in the ``(U, V)`` block of per-key sums, each token's flat index
    ``flat`` into the ``(N, V)`` rows and its old probability ``old_tok``,
    each key's step size ``scale`` (its cell's ``learning_rate / N_s`` as a
    ``(U, 1)`` column), and ``columns``, the tokens' method configs as
    per-token columns
    (:class:`~anchorlab.objectives.TokenColumns`). Their reference rows
    come from one ``ref_policy.dist`` call at the contexts ``key % C`` of
    the KL and apo rows, the only rows that read the reference, and none
    when there are none. So a pass only gathers the live rows and combines
    them."""

    __slots__ = ("key", "tok", "adv", "old", "cell", "keys", "at", "bins", "flat", "old_tok",
                 "scale", "columns")

    def __init__(self, key: np.ndarray, tok: np.ndarray, adv: np.ndarray, old: np.ndarray,
                 ref_policy: LogitTable, methods: CellMethods, counts: list[int]):
        self.key, self.tok, self.adv, self.old = key, tok, adv, old
        c, v = len(ref_policy), old.shape[1]
        self.cell = key // c
        self.keys = distinct(key)
        self.at = self.keys.searchsorted(key)
        self.bins = (self.at[:, None] * v + np.arange(v)).ravel()
        self.flat = np.arange(tok.size) * v + tok
        self.old_tok = old.take(self.flat)
        # Python's float quotient is the scalar lr / N bit for bit.
        scale = [lr / k if k else 0.0 for lr, k in zip(methods.learning_rate.tolist(), counts)]
        self.scale = np.array(scale).take(self.keys // c)[:, None]
        self.columns = methods.columns(self.cell, tok, adv,
                                       lambda rows: ref_policy.dist(key.take(rows) % c))

    def __len__(self) -> int:
        return self.key.size


def apply_token_batch(
    table: StackedTable,
    tree: ReasoningTree,
    methods: CellMethods,
    batch: TokenBatch,
    live: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One pass over a stack's batch: each cell's token-mean gradient,
    as a single ascent step.

    Every token's gradient comes from one :func:`token_gradients` call
    over the whole batch, with its flat token ids, old token probabilities
    and per-token columns. One ``np.bincount`` over the batch's
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
    update unchanged (sums scale by m, the mean does not). ``tree`` and
    ``methods`` are not read, since the batch holds the reference rows,
    step sizes and columns built from them; the arguments keep the batch
    fourth, where perfbench's traced run counts its tokens.
    """
    if not len(batch):
        none = np.zeros(0, dtype=bool)
        return none, none
    keys = batch.keys
    u, v = keys.size, table.vocab_size
    if live is None:
        live = table.dist(keys).take(batch.at, axis=0)
    grads, clipped, degenerate = token_gradients(live, batch.old_tok, batch.flat, batch.adv,
                                                 batch.columns)
    block = np.bincount(batch.bins, grads.ravel(), u * v).reshape(u, v)
    block *= batch.scale
    table.add_to_logits(keys, block)
    return clipped, degenerate


def train_step(
    table: StackedTable,
    tree: ReasoningTree,
    train: TrainConfig,
    methods: CellMethods,
    rngs: list[np.random.Generator],
    step: int = 0,
) -> list[StepStats]:
    """One outer optimization step of every cell of a stack (mutates
    ``table`` in place): cell s is ``table``'s cell s, trained by method
    config s of ``methods`` from the training stream ``rngs[s]``, with the
    schedule ``train``. Returns each cell's statistics, in order."""
    t0 = time.perf_counter()
    cells, g, n, d = len(rngs), train.groups_per_step, train.group_size, tree.depth
    r = g * n
    tokens, keys, rewards, rows = rollout(tree, table, uniform_block(rngs, r, d))
    t1 = time.perf_counter()
    adv = group_advantages(rewards.reshape(cells * g, n), train.adv_eps)
    # A zero-variance group has all-zero advantages and no learning signal.
    kept = np.logical_or.reduce(adv != 0.0, axis=1)
    counts = (np.add.reduce(kept.reshape(cells, g), axis=1) * (n * d)).tolist()
    v = table.vocab_size
    batch = TokenBatch(
        keys.reshape(cells * g, -1).compress(kept, axis=0).ravel(),
        tokens.reshape(cells * g, -1).compress(kept, axis=0).ravel(),
        adv.compress(kept, axis=0).ravel().repeat(d),
        rows.reshape(cells * g, -1, v).compress(kept, axis=0).reshape(-1, v),
        tree.ref_policy,
        methods,
        counts,
    )

    clipped = degenerate = 0
    epochs = train.inner_epochs
    for epoch in range(epochs):
        # Until the first pass updates it, the table is the one sampled from.
        c, dg = apply_token_batch(table, tree, methods, batch, batch.old if epoch == 0 else None)
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


def private_rows(tree: ReasoningTree, train: TrainConfig) -> int:
    """The most contexts one cell's run can update: a step updates only
    contexts its G*n rollouts visit, at most G*n of the B**l at level l."""
    visits = train.total_steps * train.groups_per_step * train.group_size
    return sum(min(tree.branching**level, visits) for level in range(tree.depth))


def run_experiment(
    train: TrainConfig,
    cells: list[tuple[MethodConfig, int]],
    tree: ReasoningTree,
) -> list[tuple[list[MetricRecord], list[StepStats]]]:
    """Full deterministic run of a stack of ``(method config, seed)`` cells
    trained in lockstep on ``tree`` with the schedule ``train``: returns
    each cell's metric records (step 0, every ``eval_every`` steps, and the
    final step) and per-step statistics, in the order of ``cells``. A cell
    alone is a stack of one. What a step reads of the cells' method configs
    is built once, as a :class:`~anchorlab.objectives.CellMethods`. Each
    evaluation is one :func:`evaluate` call for the whole stack. The
    stacked table reserves room for the most rows the cells can update
    (:func:`private_rows`), so it never grows; when that is every key, the
    stack mirrors its softmax rows and ``tree.ref_policy`` reads them too.
    """
    methods = CellMethods([m for m, _ in cells])
    streams = [np.random.SeedSequence(seed).spawn(2) for _, seed in cells]
    train_rngs = [np.random.default_rng(train_ss) for train_ss, _ in streams]
    eval_rngs = [np.random.default_rng(eval_ss) for _, eval_ss in streams]

    table = StackedTable(tree.ref_policy, len(cells),
                         len(cells) * private_rows(tree, train))
    k, support_k = train.eval_samples_k, train.support_k
    records = [[rec] for rec in evaluate(table, tree, 0, k, eval_rngs, support_k)]
    stats: list[list[StepStats]] = [[] for _ in cells]
    for step in range(1, train.total_steps + 1):
        step_stats = train_step(table, tree, train, methods, train_rngs, step)
        for cell, cell_stats in zip(stats, step_stats):
            cell.append(cell_stats)
        if step % train.eval_every == 0 or step == train.total_steps:
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
