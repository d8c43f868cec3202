"""Per-token surrogate objectives and their exact logit gradients.

Five methods share two entry points. :func:`token_gradients` is the
trainer's path: it computes the ascent gradient of every token of a batch
at once, as ``(N, V)`` arrays. It reads the live policy rows, and takes
what depends only on the step's batch ready-made: each token's flat index
and old probability, the reference rows, and for apo the anchors' gather
tables from :func:`anchor_reference`, which the trainer builds once per
step. :func:`method_token_update` is the scalar oracle for one token,
which also returns the surrogate value; the dense kernel reproduces its
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

import numpy as np

from .anchor import DegenerateAnchorError, build_anchor, grad_anchor_ratio
from .gradients import grad_log_prob, grad_prob
from .policy import check_float, check_int, segment_sums

METHODS = ("grpo", "grpo_kl", "grpo_kl_error_only", "nsr", "apo")
# The methods whose steps read the reference rows: the KL penalty in every
# pass, apo once per step to build its anchors. grpo and nsr never do.
REFERENCE_METHODS = ("grpo_kl", "grpo_kl_error_only", "apo")


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
    group_size: int = 8
    adv_eps: float = 1e-6

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {METHODS}")
        for name in ("clip_eps", "push_coef", "learning_rate", "adv_eps"):
            check_float(name, getattr(self, name), positive=True)
        for name in ("pull_coef", "kl_coef"):
            check_float(name, getattr(self, name))
        for name, low in (("anchor_k", 1), ("group_size", 2)):
            check_int(name, getattr(self, name), low)


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
    dev = r - r.sum(axis=-1, keepdims=True) / n
    std = np.sqrt((dev * dev).sum(axis=-1, keepdims=True) / n)
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
# Dense kernel: every token of a batch at once. Each expression is evaluated
# in the scalar kernels' order. A sum over part of a row is a
# :func:`~anchorlab.policy.segment_sums` call, or for the anchor a sum over
# fixed-width gather tables that :func:`anchor_reference` builds per step.


def _clipped_surrogate_grads(
    ratio: np.ndarray, adv: np.ndarray, push: np.ndarray, cfg: MethodConfig
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`grpo_token_update` per row: (gradients, clipped)."""
    eps = cfg.clip_eps
    capped = np.minimum(np.maximum(ratio, 1.0 - eps), 1.0 + eps) * adv
    clipped = ratio * adv > capped
    zero = clipped | (adv == 0.0)
    return np.where(zero[:, None], 0.0, adv[:, None] * push), clipped


def _kl_grads(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """:func:`kl_penalty` gradient per row."""
    pos = P > 0.0
    log_ratio = np.log(np.where(pos, P / Q, 1.0))
    kl = segment_sums((P * log_ratio)[pos], pos.sum(axis=1))
    return P * (log_ratio - kl[:, None])


def anchor_reference(Q: np.ndarray, tokens: np.ndarray, k: int):
    """The reference half of :func:`~anchorlab.anchor.build_anchor` per row,
    laid out as gather tables for the passes of a step.

    It reads only the reference rows ``Q`` and the tokens, so a train step
    builds it once for all its passes. Every anchor is the Top-K minus the
    row's token, so a row has m = min(k, V) members, or m - 1 when its
    token is in the Top-K. Returns ``(member, z_ref, empty, groups,
    order)``: ``member`` is the ``(N, V)`` member mask, ``z_ref`` each
    row's Z_ref (1.0 for an empty anchor) and ``empty`` marks rows with no
    member. ``groups`` holds two tables, for the rows of m members and for
    those of m - 1, in batch order. Each is an ``(r, 2, width)`` array of
    flat indices into the ``(N, V)`` rows (r may be 0) that lists each of
    its rows' members twice: in Top-K order, as ``build_anchor`` sums the
    anchor mass and Z_ref, and in ascending token order, as
    ``grad_support_mass`` sums P_safe. So ``P.take(idx).sum(axis=-1)`` is
    bitwise the scalar kernel's sums, and row i's are row ``order[i]`` of
    the two groups' sums concatenated. Short rows are not zero-padded to
    the full width: numpy sums 8 or more terms pairwise, so 7 or 15
    members and a trailing +0.0 would be summed in another order.
    """
    n, v = Q.shape
    base = np.arange(0, n * v, v)
    top = np.argsort(-Q, axis=1, kind="stable")[:, :k] + base[:, None]
    keep = top != (base + tokens)[:, None]
    full = keep.all(axis=1)
    member = np.zeros(n * v, dtype=bool)
    member[top[keep]] = True
    m = top.shape[1]
    full_rows, short_rows = np.flatnonzero(full), np.flatnonzero(~full)
    z_ref = np.ones(n)
    groups = []
    for rows, ranked, width in ((full_rows, top[full], m),
                                (short_rows, top[keep & ~full[:, None]], m - 1)):
        ranked = ranked.reshape(rows.size, width)
        if width:
            z_ref[rows] = Q.take(ranked).sum(axis=-1)
        idx = np.concatenate((ranked, np.sort(ranked, axis=1)), axis=1)
        groups.append(idx.reshape(rows.size, 2, width))
    order = np.empty(n, dtype=np.intp)
    order[np.concatenate((full_rows, short_rows))] = np.arange(n)
    # Only a Top-1 anchor can be empty, when the token is the Top-1.
    return member.reshape(n, v), z_ref, ~full & (m == 1), tuple(groups), order


def token_gradients(
    P: np.ndarray,
    o_t: np.ndarray,
    Q: np.ndarray | None,
    flat: np.ndarray,
    adv: np.ndarray,
    cfg: MethodConfig,
    anchors: tuple | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ascent gradients of N tokens at once: row i is
    ``method_token_update(P[i], O[i], Q[i], tokens[i], adv[i], cfg)``.

    ``P`` is the ``(N, V)`` policy rows at each token's context. The rest
    depends only on the step's batch: ``flat`` is each token's flat index
    ``i * V + tokens[i]`` into the rows, ``o_t`` the old probability of
    each token, ``O.take(flat)``, ``Q`` the reference rows, read only by
    ``grpo_kl`` and ``grpo_kl_error_only`` (None will do for the others),
    and for apo ``anchors`` is ``anchor_reference(Q, tokens,
    cfg.anchor_k)``. Returns ``(N, V)`` gradients and ``(N,)`` boolean
    clipped and degenerate-anchor flags, all bitwise equal to the scalar
    kernel's.
    """
    p_t = P.take(flat)
    a = adv[:, None]
    dz = -P  # grad_log_prob
    dz.reshape(-1)[flat] += 1.0
    none = np.zeros(flat.size, dtype=bool)
    if cfg.method == "nsr":
        return np.where(a >= 0.0, 0.0, a * dz), none, none
    push = dz  # _push_gradient, in place
    push *= p_t[:, None]
    push /= o_t[:, None]
    ratio = p_t / o_t

    grads, clipped = _clipped_surrogate_grads(ratio, adv, push, cfg)
    if cfg.method == "grpo":
        return grads, clipped, none
    if cfg.method in ("grpo_kl", "grpo_kl_error_only"):
        with_kl = grads - cfg.kl_coef * _kl_grads(P, Q)
        if cfg.method == "grpo_kl":
            return with_kl, clipped, none
        return np.where(a < 0.0, with_kl, grads), clipped, none

    # apo: the rectified ratio on negative advantages, gated by the window.
    member, z_ref, empty, groups, order = anchors
    sums = np.concatenate([P.take(idx).sum(axis=-1) for idx in groups])
    mass, p_safe = sums.take(order, axis=0).T
    neg = adv < 0.0
    # An empty anchor has mass 0, z_ref 1 and no members, so its pull terms
    # are +0.0 and leave the push-only update bit for bit.
    rectified = cfg.push_coef * ratio - cfg.pull_coef * (mass / z_ref)
    eps = cfg.clip_eps
    outside = ~(((1.0 - eps) <= rectified) & (rectified <= (1.0 + eps)))
    rect = (a * cfg.push_coef) * push
    # grad_support_mass (P * (1 - P_safe) on members, -P * P_safe elsewhere)
    # over Z_ref, times the pull weight; products commute bit for bit, so
    # each is taken in place.
    pull = np.where(member, (1.0 - p_safe)[:, None], -p_safe[:, None])
    pull *= P
    pull /= z_ref[:, None]
    pull *= a * cfg.pull_coef
    rect -= pull
    rect[outside] = 0.0
    return (
        np.where(neg[:, None], rect, grads),
        np.where(neg, outside, clipped),
        neg & empty,
    )
