"""Safe-manifold extraction and the exclusive anchor construction.

The safe manifold at a context is the Top-K support of the reference
distribution. The anchor set removes the current error token from that
manifold so the restoring force can never fight the error-suppression
force on the same logit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gradients import grad_support_mass


class DegenerateAnchorError(ValueError):
    """Raised when exclusion empties the anchor set (Z_ref would be 0)."""


def top_k(ref_dist: np.ndarray, k: int) -> tuple[int, ...]:
    """Indices of the k highest-probability tokens, highest first.

    Exact probability ties break toward the lower token index. k larger
    than the vocabulary returns the whole vocabulary.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    p = np.asarray(ref_dist, dtype=np.float64)
    # Stable sort on -p keeps ascending index order among equal probabilities.
    order = np.argsort(-p, kind="stable")
    return tuple(int(i) for i in order[: min(k, p.size)])


@dataclass(frozen=True)
class AnchorContext:
    """Exclusive anchor for one negative-advantage token: the reference
    Top-K minus the error token, its reference mass ``z_ref_mass``, and
    ``anchor_ratio``, the policy's anchor mass divided by ``z_ref_mass``.
    """

    anchor_set: tuple[int, ...]
    z_ref_mass: float
    anchor_ratio: float


def build_anchor(
    ref_dist: np.ndarray,
    policy_dist: np.ndarray,
    error_token: int,
    k: int,
) -> AnchorContext:
    """Top-K of the reference minus the error token, with ratio bookkeeping.

    Raises DegenerateAnchorError when the exclusion leaves nothing to anchor
    to (e.g. k=1 and the error token is the reference Top-1); callers fall
    back to a push-only update for that token.
    """
    ref = np.asarray(ref_dist, dtype=np.float64)
    pol = np.asarray(policy_dist, dtype=np.float64)
    if ref.shape != pol.shape:
        raise ValueError(f"distribution shapes differ: {ref.shape} vs {pol.shape}")
    if not 0 <= error_token < ref.size:
        raise ValueError(f"error_token {error_token} out of range for V={ref.size}")

    members = tuple(t for t in top_k(ref, k) if t != error_token)
    if not members:
        raise DegenerateAnchorError(
            f"anchor set is empty: k={k} and error token {error_token} is the "
            "entire reference Top-K"
        )
    idx = np.array(members, dtype=np.intp)
    z_ref = float(ref[idx].sum())
    return AnchorContext(members, z_ref, float(pol[idx].sum()) / z_ref)


def grad_anchor_ratio(policy_dist: np.ndarray, anchor: AnchorContext) -> np.ndarray:
    """Logit gradient of the anchor ratio: (1/Z_ref) * d(anchor mass)/dz."""
    return grad_support_mass(policy_dist, anchor.anchor_set) / anchor.z_ref_mass
