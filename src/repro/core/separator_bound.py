"""Topology-refined lower bounds via ⟨α, ℓ⟩-separators (Theorem 5.1, Figs. 5–6).

For a digraph family with an ⟨α, ℓ⟩-separator, any s-systolic gossip protocol
satisfies ``t ≥ e(s)·log₂(n)·(1 − o(1))`` with

    ``e(s) = max { ℓ·(α − log₂ f(λ)) / log₂(1/λ) :  0 < λ < 1,  f(λ) ≤ 1 }``

where ``f`` is the norm-bound function of the relevant mode and period
(Lemma 4.3 for directed/half-duplex, Lemma 6.1 for full-duplex, their
``s → ∞`` limits for non-systolic protocols).

The objective is smooth on the feasible interval ``(0, λ_max]`` (``λ_max``
the root of ``f(λ) = 1``), tends to ``ℓ`` as ``λ → 0⁺`` and equals the
general bound ``α·ℓ / log₂(1/λ_max)`` at the right endpoint; the maximiser is
found by a dense 4096-point scan, plus an explicit comparison with the
boundary value, which keeps the result correct even when the maximum sits
at ``λ_max`` (as it does for de Bruijn and Kautz networks, whose entries in
Fig. 5 coincide with the general Fig. 4 values).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.core.polynomials import (
    full_duplex_norm_bound,
    full_duplex_norm_bound_limit,
    half_duplex_norm_bound,
    half_duplex_norm_bound_limit,
)
from repro.core.roots import solve_unit_root
from repro.exceptions import BoundComputationError

__all__ = ["SeparatorBound", "separator_lower_bound", "optimize_separator_objective"]


@dataclass(frozen=True)
class SeparatorBound:
    """A separator-based lower bound ``t ≥ coefficient·log₂(n)·(1 − o(1))``.

    Attributes
    ----------
    mode:
        ``"half-duplex"`` or ``"full-duplex"``.
    period:
        Systolic period ``s`` or ``None`` for non-systolic.
    alpha, ell:
        The separator constants of Definition 3.5.
    lambda_star:
        The maximising ``λ``.
    coefficient:
        The resulting ``e(s)``.
    boundary_lambda:
        The root of ``f(λ) = 1`` (right end of the feasible interval).
    at_boundary:
        ``True`` when the maximiser is (numerically) the boundary, i.e. the
        separator refinement does not improve on the general bound.
    """

    mode: str
    period: int | None
    alpha: float
    ell: float
    lambda_star: float
    coefficient: float
    boundary_lambda: float
    at_boundary: bool

    def lower_bound(self, n: int) -> float:
        """Leading term ``coefficient·log₂(n)`` for an ``n``-vertex member of the family."""
        if n < 2:
            raise BoundComputationError(f"a gossip instance needs n >= 2 vertices, got {n}")
        return self.coefficient * math.log2(n)

    def describe(self) -> str:
        period = "∞" if self.period is None else str(self.period)
        return (
            f"{self.mode}, s={period}, separator (α={self.alpha:.4f}, ℓ={self.ell:.4f}): "
            f"t >= {self.coefficient:.4f}·log2(n)·(1 - o(1))  (λ* = {self.lambda_star:.6f})"
        )


def _norm_bound_function(mode: str, period: int | None) -> Callable[[float], float]:
    if mode == "half-duplex":
        if period is None:
            return half_duplex_norm_bound_limit
        if period <= 2:
            raise BoundComputationError(
                f"the half-duplex separator bound requires s >= 3, got s={period}"
            )
        return lambda lam: half_duplex_norm_bound(period, lam)
    if mode == "full-duplex":
        if period is None:
            return full_duplex_norm_bound_limit
        if period < 3:
            raise BoundComputationError(
                f"the full-duplex separator bound requires s >= 3, got s={period}"
            )
        return lambda lam: full_duplex_norm_bound(period, lam)
    raise BoundComputationError(f"unknown mode {mode!r}; expected 'half-duplex' or 'full-duplex'")


def optimize_separator_objective(
    alpha: float,
    ell: float,
    norm_bound: Callable[[float], float],
    *,
    grid_points: int = 4096,
) -> tuple[float, float, float]:
    """Maximise ``ℓ·(α − log₂ f(λ))/log₂(1/λ)`` over the feasible ``λ``.

    Returns ``(lambda_star, value, boundary_lambda)``.
    """
    if alpha <= 0.0 or ell <= 0.0:
        raise BoundComputationError(
            f"separator constants must be positive, got α={alpha}, ℓ={ell}"
        )
    boundary = solve_unit_root(norm_bound)

    def objective(lam: float) -> float:
        value = norm_bound(lam)
        if value <= 0.0:
            # As λ → 0⁺ the objective tends to ℓ; the limit handles exact zero.
            return ell
        return ell * (alpha - math.log2(value)) / math.log2(1.0 / lam)

    lambdas = np.linspace(boundary * 1e-4, boundary, grid_points)
    values = np.array([objective(lam) for lam in lambdas])
    best_index = int(np.argmax(values))
    best_lambda = float(lambdas[best_index])
    best_value = float(values[best_index])

    boundary_value = objective(boundary)
    if boundary_value > best_value:
        best_lambda, best_value = boundary, boundary_value
    return best_lambda, best_value, boundary


def separator_lower_bound(
    alpha: float,
    ell: float,
    s: int | None = None,
    *,
    mode: str = "half-duplex",
) -> SeparatorBound:
    """Theorem 5.1 (and its Section 6 full-duplex analogue) for given separator constants.

    Parameters
    ----------
    alpha, ell:
        The ⟨α, ℓ⟩-separator constants of the digraph family (Lemma 3.1
        supplies them for Butterfly, Wrapped Butterfly, de Bruijn and Kautz
        networks; see :mod:`repro.topologies.separators`).
    s:
        Systolic period; ``None`` for the non-systolic limit.
    mode:
        ``"half-duplex"`` (also covers directed protocols) or ``"full-duplex"``.
    """
    norm_bound = _norm_bound_function(mode, s)
    lambda_star, value, boundary = optimize_separator_objective(alpha, ell, norm_bound)
    return SeparatorBound(
        mode=mode,
        period=s,
        alpha=alpha,
        ell=ell,
        lambda_star=lambda_star,
        coefficient=value,
        boundary_lambda=boundary,
        at_boundary=bool(abs(lambda_star - boundary) <= 1e-9),
    )
