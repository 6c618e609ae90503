"""Root solving for the characteristic equations of the lower bounds.

Every lower bound in the paper reduces to finding the unique ``λ ∈ (0, 1)``
with ``f(λ) = 1`` for a strictly increasing ``f`` (the norm-bound function of
the relevant mode and period).  We bracket the root on ``(0, 1)`` and
bisect: about 45 halvings reach the 1e-12 tolerance, each one norm-bound
evaluation, with no dependency beyond the standard library and one code
path on every machine.  The paper's tables are quoted to four decimals, far
coarser than the tolerance.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.exceptions import BoundComputationError

__all__ = ["solve_unit_root", "bisection_root"]

#: Default absolute tolerance on λ. The paper quotes e(s) to four decimals;
#: 1e-12 in λ is far more than enough for that.
DEFAULT_TOLERANCE = 1e-12

_UPPER_LIMIT = 1.0 - 1e-13


def bisection_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = 200,
) -> float:
    """Plain bisection for ``f(λ) = 0`` on a sign-changing bracket ``[lo, hi]``."""
    f_lo = f(lo)
    f_hi = f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0.0:
        raise BoundComputationError(
            f"bisection bracket [{lo}, {hi}] does not change sign: f(lo)={f_lo}, f(hi)={f_hi}"
        )
    for _ in range(max_iterations):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == 0.0 or (hi - lo) < tolerance:
            return mid
        if f_lo * f_mid < 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def solve_unit_root(
    norm_bound: Callable[[float], float],
    *,
    tolerance: float = DEFAULT_TOLERANCE,
) -> float:
    """The unique ``λ ∈ (0, 1)`` with ``norm_bound(λ) = 1``.

    ``norm_bound`` must be continuous and strictly increasing on ``(0, 1)``
    with ``norm_bound(0⁺) < 1`` and ``norm_bound(1⁻) > 1`` — true of every
    norm-bound function in the paper for ``s ≥ 3`` (half-duplex) and
    ``s ≥ 2`` (full-duplex), and of both non-systolic limits.
    """
    lo = 1e-15
    hi = _UPPER_LIMIT

    def g(lam: float) -> float:
        return norm_bound(lam) - 1.0

    g_lo = g(lo)
    g_hi = g(hi)
    if g_lo >= 0.0:
        raise BoundComputationError(
            f"norm bound is already >= 1 at λ={lo}: the equation f(λ)=1 has no root in (0,1)"
        )
    if g_hi <= 0.0:
        raise BoundComputationError(
            "norm bound stays below 1 on (0,1): the equation f(λ)=1 has no root in (0,1). "
            "This happens for degenerate periods (e.g. the half-duplex bound with s <= 2)."
        )

    root = bisection_root(g, lo, hi, tolerance=tolerance)
    if not 0.0 < root < 1.0:
        raise BoundComputationError(f"root solver returned λ={root} outside (0, 1)")
    return root
