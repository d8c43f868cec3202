"""Per-token surrogate objectives and their exact logit gradients.

Five methods share two entry points. :func:`token_gradients` is the
trainer's path: it computes the ascent gradient of every token of a
stack's batch at once, as ``(N, V)`` arrays, each token under its own
cell's method config. It reads the live policy rows, and takes what
depends only on the step's batch ready-made: each token's flat index and
old probability, and its :class:`TokenColumns` (clip bounds, the rows of
each method's branch, their coefficients, reference rows and anchor
tables), which :meth:`CellMethods.columns` builds once per step from the
per-cell arrays that :class:`CellMethods` builds once per run.
:func:`method_token_update` is the scalar oracle for one token, which
also returns the surrogate value; the dense kernel reproduces its
gradients and flags bit for bit.

* ``grpo``                -- clipped ratio surrogate only.
* ``grpo_kl``             -- clipped surrogate minus a KL penalty to the
                             reference at every token.
* ``grpo_kl_error_only``  -- KL penalty active only on negative advantages.
* ``nsr``                 -- likelihood descent on negative samples only.
* ``apo``                 -- ratio rectification on negative advantages:
                             the ratio becomes lambda*push - beta*anchor and
                             the whole gradient is gated by the trust-region
                             window on that rectified ratio.

All gradients are ascent directions on the per-token objective: the trainer
applies ``z += lr * gradient``. Values and gradients are exact over the full
vocabulary (tabular setting), with the old and reference distributions
treated as constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .anchor import DegenerateAnchorError, build_anchor, grad_anchor_ratio
from .gradients import grad_log_prob, grad_prob
from .policy import check_float, check_int, layout_sums, segment_layout, segment_sums

METHODS = ("grpo", "grpo_kl", "grpo_kl_error_only", "nsr", "apo")


@dataclass
class MethodConfig:
    """Method selector plus coefficients (defaults follow the reference setup)."""

    method: str = "grpo"
    clip_eps: float = 0.2
    push_coef: float = 1.05
    pull_coef: float = 0.1
    anchor_k: int = 8
    kl_coef: float = 0.01
    learning_rate: float = 0.5

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {METHODS}")
        for name in ("clip_eps", "push_coef", "learning_rate"):
            check_float(name, getattr(self, name), positive=True)
        for name in ("pull_coef", "kl_coef"):
            check_float(name, getattr(self, name))
        check_int("anchor_k", self.anchor_k, 1)


@dataclass
class TokenUpdate:
    """One token's contribution: scalar objective, logit gradient, flags."""

    token: int
    advantage: float
    surrogate_value: float
    gradient: np.ndarray
    clipped: bool
    degenerate_anchor: bool = False


def group_advantages(rewards, adv_eps: float = 1e-6) -> np.ndarray:
    """Group-relative advantages: (R - mean) / (population std + adv_eps).

    Groups lie along the last axis, so a ``(G, n)`` array is G groups and
    each row equals the 1-D call on it bit for bit. A zero-variance group
    returns exact zeros; the trainer skips it.
    """
    r = np.asarray(rewards, dtype=np.float64)
    if r.ndim == 0 or r.shape[-1] < 2:
        raise ValueError(f"group must contain at least 2 rewards, got shape {r.shape}")
    # r.std() and r.mean() in numpy's own arithmetic, with the mean taken once.
    n = r.shape[-1]
    dev = r - np.add.reduce(r, axis=-1, keepdims=True) / n
    std = np.sqrt(np.add.reduce(dev * dev, axis=-1, keepdims=True) / n)
    return np.where(std == 0.0, 0.0, dev / (std + adv_eps))


def grpo_token_loss(
    ratio: float, advantage: float, cfg: MethodConfig
) -> tuple[float, float, bool]:
    """Clipped surrogate min(r*A, clip(r)*A) and its derivative in r.

    Returns (value, d value/d ratio, clipped). The derivative is ``advantage``
    on the branch the min selects and 0 on the flat clipped branch; exact
    ties at the boundary count as unclipped.
    """
    eps = cfg.clip_eps
    clipped_ratio = min(max(ratio, 1.0 - eps), 1.0 + eps)
    raw = ratio * advantage
    capped = clipped_ratio * advantage
    if raw <= capped:
        return raw, advantage, False
    return capped, 0.0, True


def apo_rectified_ratio(push_ratio: float, anchor_ratio: float, cfg: MethodConfig) -> float:
    """lambda * push_ratio - beta * anchor_ratio (may go negative)."""
    return cfg.push_coef * push_ratio - cfg.pull_coef * anchor_ratio


def _push_gradient(policy_dist: np.ndarray, old_dist: np.ndarray, token: int) -> np.ndarray:
    # d/dz of pi_theta(token)/pi_old(token), pi_old constant.
    return grad_prob(policy_dist, token) / float(old_dist[token])


def grpo_token_update(
    policy_dist: np.ndarray,
    old_dist: np.ndarray,
    token: int,
    advantage: float,
    cfg: MethodConfig,
) -> TokenUpdate:
    """Standard clipped-ratio update with ratio pi_theta(t)/pi_old(t)."""
    ratio = float(policy_dist[token]) / float(old_dist[token])
    value, dvdr, clipped = grpo_token_loss(ratio, advantage, cfg)
    if dvdr == 0.0:
        grad = np.zeros_like(np.asarray(policy_dist, dtype=np.float64))
    else:
        grad = dvdr * _push_gradient(policy_dist, old_dist, token)
    return TokenUpdate(token, advantage, value, grad, clipped)


def apo_token_update(
    policy_dist: np.ndarray,
    old_dist: np.ndarray,
    ref_dist: np.ndarray,
    token: int,
    advantage: float,
    cfg: MethodConfig,
) -> TokenUpdate:
    """Anchored update: plain clipped surrogate on positive advantages,
    rectified ratio on negative ones.

    On the negative branch the gradient is active only while the rectified
    ratio sits inside [1-eps, 1+eps]; outside the window the update is zero
    on both sides (the restoring force is capped by the trust region, it can
    never push past it). A degenerate anchor falls back to the push-only
    ratio (beta treated as 0 for this token) and is flagged, not raised.
    """
    if advantage >= 0.0:
        return grpo_token_update(policy_dist, old_dist, token, advantage, cfg)

    push_ratio = float(policy_dist[token]) / float(old_dist[token])
    degenerate = False
    try:
        anchor = build_anchor(ref_dist, policy_dist, token, cfg.anchor_k)
    except DegenerateAnchorError:
        anchor = None
        degenerate = True

    if anchor is None:
        rectified = cfg.push_coef * push_ratio
    else:
        assert token not in anchor.anchor_set
        rectified = apo_rectified_ratio(push_ratio, anchor.anchor_ratio, cfg)

    value, _, _ = grpo_token_loss(rectified, advantage, cfg)
    eps = cfg.clip_eps
    in_window = (1.0 - eps) <= rectified <= (1.0 + eps)
    if not in_window:
        grad = np.zeros_like(np.asarray(policy_dist, dtype=np.float64))
    else:
        grad = advantage * cfg.push_coef * _push_gradient(policy_dist, old_dist, token)
        if anchor is not None:
            grad = grad - advantage * cfg.pull_coef * grad_anchor_ratio(policy_dist, anchor)
    return TokenUpdate(token, advantage, value, grad, not in_window, degenerate)


def kl_penalty(policy_dist: np.ndarray, ref_dist: np.ndarray) -> tuple[float, np.ndarray]:
    """Exact KL(pi_theta || pi_ref) over the vocabulary and its logit gradient.

    dz[k] = p[k] * (log(p[k]/q[k]) - KL), with the reference constant.
    """
    p = np.asarray(policy_dist, dtype=np.float64)
    q = np.asarray(ref_dist, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"distribution shapes differ: {p.shape} vs {q.shape}")
    if np.any((q <= 0.0) & (p > 0.0)):
        raise ValueError("reference assigns zero mass where the policy is positive")
    log_ratio = np.zeros_like(p)
    pos = p > 0.0
    log_ratio[pos] = np.log(p[pos] / q[pos])
    value = float((p[pos] * log_ratio[pos]).sum())
    grad = p * (log_ratio - value)
    return value, grad


def method_token_update(
    policy_dist: np.ndarray,
    old_dist: np.ndarray,
    ref_dist: np.ndarray,
    token: int,
    advantage: float,
    cfg: MethodConfig,
) -> TokenUpdate:
    """Dispatch one token's surrogate value and ascent gradient by method."""
    if cfg.method == "grpo":
        return grpo_token_update(policy_dist, old_dist, token, advantage, cfg)

    if cfg.method in ("grpo_kl", "grpo_kl_error_only"):
        update = grpo_token_update(policy_dist, old_dist, token, advantage, cfg)
        if cfg.method == "grpo_kl" or advantage < 0.0:
            kl_value, kl_grad = kl_penalty(policy_dist, ref_dist)
            update.surrogate_value -= cfg.kl_coef * kl_value
            update.gradient = update.gradient - cfg.kl_coef * kl_grad
        return update

    if cfg.method == "nsr":
        p = np.asarray(policy_dist, dtype=np.float64)
        if advantage >= 0.0:
            return TokenUpdate(token, advantage, 0.0, np.zeros_like(p), False)
        value = advantage * float(np.log(p[token]))
        grad = advantage * grad_log_prob(p, token)
        return TokenUpdate(token, advantage, value, grad, False)

    if cfg.method == "apo":
        return apo_token_update(policy_dist, old_dist, ref_dist, token, advantage, cfg)

    raise ValueError(f"unknown method {cfg.method!r}")


# ---------------------------------------------------------------------------
# Dense kernel: every token of a stack's batch at once, each under its own
# cell's method config. Each expression is evaluated in the scalar kernels'
# order. A sum over part of a row is a :func:`~anchorlab.policy.segment_sums`
# call, or for the anchor a sum through the segment layout that
# :func:`anchor_reference` builds per step.

# What a token's update is, by its method and the sign of its advantage:
# the clipped surrogate alone, nsr's log-likelihood term, the clipped
# surrogate minus the KL penalty, or apo's rectified ratio.
PLAIN, NSR, KL, APO = range(4)
_ROLES = {  # method: (role at advantage >= 0, role at advantage < 0)
    "grpo": (PLAIN, PLAIN),
    "grpo_kl": (KL, KL),
    "grpo_kl_error_only": (PLAIN, KL),
    "nsr": (NSR, NSR),
    "apo": (PLAIN, APO),
}


def kl_rows(P: np.ndarray, Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row: ``log(P / Q)``, 0.0 where ``P`` is 0, and KL(P || Q) summed
    over the positive entries in token order, as :func:`kl_penalty` does."""
    pos = P > 0.0
    # Divided only where P > 0, so a Q that underflows to 0 with P gives no 0/0.
    log_ratio = np.log(np.divide(P, Q, out=np.where(pos, P, 1.0), where=pos))
    return log_ratio, segment_sums((P * log_ratio)[pos], np.add.reduce(pos.T.copy(), axis=0))


def anchor_reference(Q: np.ndarray, tokens: np.ndarray, k: np.ndarray):
    """The reference half of :func:`~anchorlab.anchor.build_anchor` per row,
    laid out for the passes of a step.

    It reads only the reference rows ``Q``, the tokens and each row's
    anchor width ``k`` (an ``(N,)`` int array), so a train step builds it
    once for all its passes and widths. An anchor is the Top-k minus the
    row's token: min(k, V) members, or one fewer when the token is in the
    Top-k. Returns ``(member, z_ref, empty, layout)``: the ``(N, V)`` member
    mask, each row's Z_ref (1.0 for an empty anchor), the rows with no
    member, and a :func:`~anchorlab.policy.segment_layout` of flat indices
    into the ``(N, V)`` rows that lists every row's members in Top-k order,
    as ``build_anchor`` sums the anchor mass and Z_ref, then every row's in
    ascending token order, as ``grad_support_mass`` sums P_safe. So
    ``layout_sums(P, layout)`` is the scalar kernel's masses, then P_safes.
    """
    n, v = Q.shape
    base = np.arange(0, n * v, v)
    top = (-Q).argsort(axis=1, kind="stable")[:, :np.maximum.reduce(k)] + base[:, None]
    keep = (top != (base + tokens)[:, None]) & (np.arange(top.shape[1]) < k[:, None])
    width = np.add.reduce(keep.T.copy(), axis=0)
    member = np.zeros(n * v, dtype=bool)
    member[top[keep]] = True
    layout = segment_layout(np.concatenate((width, width)),
                            np.concatenate((top[keep], member.nonzero()[0])))
    # Only a Top-1 anchor can be empty, when the token is the Top-1.
    empty = width == 0
    return member.reshape(n, v), np.where(empty, 1.0, layout_sums(Q, layout)[:n]), empty, layout


class TokenColumns(NamedTuple):
    """What :func:`token_gradients` reads of each token's method config.
    ``low`` and ``high`` are every token's clip bounds ``1 - clip_eps`` and
    ``1 + clip_eps``. ``nsr``, ``kl`` and ``apo`` are the ids of the rows
    with each :data:`_ROLES` role but the plain one: every nsr token; every
    grpo_kl token and the grpo_kl_error_only tokens with a negative
    advantage, with their ``(n, 1)`` ``kl_coef`` column and reference rows
    ``kl_ref`` (None when no row reads the reference); the apo tokens with
    a negative advantage, with their ``push_coef`` and ``pull_coef``
    columns and anchors ``(member, z_ref, empty, layout)``
    (:func:`anchor_reference`; None when there are no such tokens)."""

    low: np.ndarray
    high: np.ndarray
    nsr: np.ndarray
    kl: np.ndarray
    kl_coef: np.ndarray
    kl_ref: np.ndarray
    apo: np.ndarray
    push_coef: np.ndarray
    pull_coef: np.ndarray
    anchors: tuple | None


class CellMethods:
    """Everything a train step reads of the method configs of a stack's
    cells, as per-cell arrays built once per run: each cell's
    ``learning_rate``, and what :meth:`columns` takes of them at a batch's
    tokens. Each clip bound is computed per cell as a Python float, as the
    scalar kernel computes it."""

    __slots__ = ("role", "low", "high", "kl_coef", "push_coef", "pull_coef", "anchor_k",
                 "learning_rate")

    def __init__(self, cfgs: list[MethodConfig]):
        # Indexed by cell * 2 + (advantage < 0).
        self.role = np.array([_ROLES[m.method] for m in cfgs]).ravel()
        self.low = np.array([1.0 - m.clip_eps for m in cfgs])
        self.high = np.array([1.0 + m.clip_eps for m in cfgs])
        for name in ("kl_coef", "push_coef", "pull_coef", "anchor_k", "learning_rate"):
            setattr(self, name, np.array([getattr(m, name) for m in cfgs]))

    def columns(self, cell: np.ndarray, tokens: np.ndarray, adv: np.ndarray,
                reference) -> TokenColumns:
        """The :class:`TokenColumns` of tokens ``tokens`` with advantages
        ``adv``, token i of cell ``cell[i]``. ``reference(rows)`` returns
        the reference rows at the token ids ``rows``; it is called once,
        with the kl rows then the apo rows, and not at all when there are
        none."""
        role = self.role.take(cell * 2 + (adv < 0.0))
        nsr, kl, apo = ((role == r).nonzero()[0] for r in (NSR, KL, APO))
        read = np.concatenate((kl, apo))
        ref = reference(read) if read.size else None
        anchors = push_coef = pull_coef = None
        if apo.size:
            at = cell.take(apo)
            push_coef, pull_coef = self.push_coef.take(at), self.pull_coef.take(at)
            anchors = anchor_reference(ref[kl.size:], tokens.take(apo), self.anchor_k.take(at))
        return TokenColumns(
            self.low.take(cell), self.high.take(cell), nsr,
            kl, self.kl_coef.take(cell.take(kl))[:, None], None if ref is None else ref[:kl.size],
            apo, push_coef, pull_coef, anchors,
        )


def token_gradients(
    P: np.ndarray,
    o_t: np.ndarray,
    flat: np.ndarray,
    adv: np.ndarray,
    cols: TokenColumns,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ascent gradients of N tokens at once, each under its own method
    config: row i is ``method_token_update(P[i], O[i], Q[i], tokens[i],
    adv[i], cfgs[cell[i]])`` for ``cols = CellMethods(cfgs).columns(cell,
    tokens, adv, ...)``.

    ``P`` is the ``(N, V)`` policy rows at each token's context. The rest
    depends only on the step's batch: ``flat`` is each token's flat index
    ``i * V + tokens[i]`` into the rows, ``o_t`` the old probability of
    each token, ``O.take(flat)``, and ``cols`` the per-token columns. Every
    token's clipped-surrogate gradient is computed, and the nsr, KL and apo
    rows then get their own, apo's anchor mass and P_safe in one sum through
    the layout of ``cols.anchors``. A product with a per-row column has the
    bits of the product with the config's scalar. Returns ``(N, V)``
    gradients and ``(N,)`` clipped and degenerate-anchor flags, bitwise the
    scalar kernel's.
    """
    p_t = P.take(flat)
    a = adv[:, None]
    dz = -P  # grad_log_prob
    dz.reshape(-1)[flat] += 1.0
    nsr, kl, apo = cols.nsr, cols.kl, cols.apo
    if nsr.size:
        a_nsr = a.take(nsr, axis=0)
        nsr_grads = np.where(a_nsr >= 0.0, 0.0, a_nsr * dz.take(nsr, axis=0))
    push = dz  # _push_gradient, in place
    push *= p_t[:, None]
    push /= o_t[:, None]
    ratio = p_t / o_t
    if apo.size:
        push_apo = push.take(apo, axis=0)

    # grpo_token_update per row, in place of the push gradient.
    capped = np.minimum(np.maximum(ratio, cols.low), cols.high) * adv
    clipped = ratio * adv > capped
    grads = push
    grads *= a
    grads[clipped | (adv == 0.0)] = 0.0
    degenerate = np.zeros(flat.size, dtype=bool)
    if nsr.size:
        grads[nsr] = nsr_grads
        clipped[nsr] = False
    if kl.size:
        P_kl = P.take(kl, axis=0)
        log_ratio, value = kl_rows(P_kl, cols.kl_ref)
        grads[kl] = grads.take(kl, axis=0) - cols.kl_coef * (P_kl * (log_ratio - value[:, None]))
    if not apo.size:
        return grads, clipped, degenerate

    # apo: the rectified ratio on negative advantages, gated by the window.
    member, z_ref, empty, layout = cols.anchors
    P = P.take(apo, axis=0)
    mass, p_safe = layout_sums(P, layout).reshape(2, apo.size)
    # An empty anchor has mass 0, z_ref 1 and no members, so its pull terms
    # are +0.0 and leave the push-only update bit for bit. As in the scalar
    # kernel's Python floats, a ratio past the float64 range warns of
    # nothing and is gated; a gated row's products, which the scalar kernel
    # never forms and which may overflow, are taken with advantage 0.0.
    with np.errstate(over="ignore", invalid="ignore"):
        rectified = cols.push_coef * ratio.take(apo) - cols.pull_coef * (mass / z_ref)
    outside = ~((cols.low.take(apo) <= rectified) & (rectified <= cols.high.take(apo)))
    a = np.where(outside[:, None], 0.0, a.take(apo, axis=0))
    rect = (a * cols.push_coef[:, None]) * push_apo
    # grad_support_mass (P * (1 - P_safe) on members, -P * P_safe elsewhere)
    # over Z_ref, times the pull weight; products commute bit for bit, so
    # each is taken in place.
    pull = np.where(member, (1.0 - p_safe)[:, None], -p_safe[:, None])
    pull *= P
    pull /= z_ref[:, None]
    pull *= a * cols.pull_coef[:, None]
    rect -= pull
    rect[outside] = 0.0
    grads[apo] = rect
    clipped[apo] = outside
    degenerate[apo] = empty
    return grads, clipped, degenerate
