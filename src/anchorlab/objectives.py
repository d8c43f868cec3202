"""Per-token surrogate objectives and their exact logit gradients.

Five methods share two entry points. :func:`token_gradients` is the
trainer's path: it computes the ascent gradient of every token of a batch
at once, as ``(N, V)`` arrays. :func:`method_token_update` is the scalar
oracle for one token, which also returns the surrogate value; the dense
kernel reproduces its gradients and flags bit for bit.

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
from .policy import check_float, check_int

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
    group_size: int = 8
    adv_eps: float = 1e-6

    def __post_init__(self) -> None:
        check_int("anchor_k", self.anchor_k)
        check_int("group_size", self.group_size)
        for name in ("clip_eps", "push_coef", "pull_coef", "kl_coef", "learning_rate",
                     "adv_eps"):
            check_float(name, getattr(self, name))
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {METHODS}")
        if self.clip_eps <= 0:
            raise ValueError(f"clip_eps must be > 0, got {self.clip_eps}")
        if self.push_coef <= 0:
            raise ValueError(f"push_coef must be > 0, got {self.push_coef}")
        if self.pull_coef < 0:
            raise ValueError(f"pull_coef must be >= 0, got {self.pull_coef}")
        if self.anchor_k < 1:
            raise ValueError(f"anchor_k must be >= 1, got {self.anchor_k}")
        if self.kl_coef < 0:
            raise ValueError(f"kl_coef must be >= 0, got {self.kl_coef}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.group_size < 2:
            raise ValueError(f"group_size must be >= 2, got {self.group_size}")
        if self.adv_eps <= 0:
            raise ValueError(f"adv_eps must be > 0, got {self.adv_eps}")


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
    std = r.std(axis=-1, keepdims=True)
    return np.where(std == 0.0, 0.0, (r - r.mean(axis=-1, keepdims=True)) / (std + adv_eps))


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
# in the scalar kernels' order, and every sum over a subset of a row is a sum
# of the compressed subset in the scalar order (numpy sums 8 or more terms
# pairwise, so a masked full-row sum would differ in the last bits).


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
    terms = P * log_ratio
    kl = terms.sum(axis=1)
    for i in np.flatnonzero(~pos.all(axis=1)):
        kl[i] = terms[i][pos[i]].sum()  # the scalar kernel sums positive entries only
    return P * (log_ratio - kl[:, None])


def _exclusive_anchors(P: np.ndarray, Q: np.ndarray, tokens: np.ndarray, k: int):
    """:func:`~anchorlab.anchor.build_anchor` per row.

    Returns (member mask, z_ref, policy anchor mass, P_safe, empty). Rows
    whose anchor set is empty get z_ref 1 and zero masses.
    """
    n, v = P.shape
    k = min(k, v)
    rows = np.arange(n)
    top = np.argsort(-Q, axis=1, kind="stable")[:, :k]
    hit = top == tokens[:, None]
    in_top = hit.any(axis=1)
    member = np.zeros((n, v), dtype=bool)
    member[rows[:, None], top] = True
    member[rows, tokens] = False
    z_ref, mass, p_safe = np.ones(n), np.zeros(n), np.zeros(n)
    # Rows with the error token inside the Top-K have k-1 members, the others k.
    for sel, m in ((in_top, k - 1), (~in_top, k)):
        if m == 0 or not sel.any():
            continue
        r = np.flatnonzero(sel)[:, None]
        ranked = top[sel][~hit[sel]].reshape(-1, m)  # Top-K order
        z_ref[sel] = Q[r, ranked].sum(axis=1)
        mass[sel] = P[r, ranked].sum(axis=1)
        ascending = np.nonzero(member[sel])[1].reshape(-1, m)  # grad_support_mass order
        p_safe[sel] = P[r, ascending].sum(axis=1)
    return member, z_ref, mass, p_safe, in_top & (k == 1)


def token_gradients(
    P: np.ndarray,
    O: np.ndarray,
    Q: np.ndarray,
    tokens: np.ndarray,
    adv: np.ndarray,
    cfg: MethodConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ascent gradients of N tokens at once: row i is
    ``method_token_update(P[i], O[i], Q[i], tokens[i], adv[i], cfg)``.

    ``P``, ``O`` and ``Q`` are the ``(N, V)`` policy, old and reference rows
    at each token's context. Returns ``(N, V)`` gradients and ``(N,)``
    boolean clipped and degenerate-anchor flags, all bitwise equal to the
    scalar kernel's.
    """
    rows = np.arange(tokens.size)
    p_t, o_t = P[rows, tokens], O[rows, tokens]
    a = adv[:, None]
    dz = -P  # grad_log_prob
    dz[rows, tokens] += 1.0
    none = np.zeros(tokens.size, dtype=bool)
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
    member, z_ref, mass, p_safe, empty = _exclusive_anchors(P, Q, tokens, cfg.anchor_k)
    neg = adv < 0.0
    push_only = cfg.push_coef * ratio
    rectified = np.where(empty, push_only, push_only - cfg.pull_coef * (mass / z_ref))
    eps = cfg.clip_eps
    outside = ~(((1.0 - eps) <= rectified) & (rectified <= (1.0 + eps)))
    rect = (a * cfg.push_coef) * push
    gsm = np.where(member, P * (1.0 - p_safe[:, None]), -P * p_safe[:, None])
    rect = np.where(empty[:, None], rect, rect - (a * cfg.pull_coef) * (gsm / z_ref[:, None]))
    rect = np.where(outside[:, None], 0.0, rect)
    return (
        np.where(neg[:, None], rect, grads),
        np.where(neg, outside, clipped),
        neg & empty,
    )
