"""The benchmark's own arithmetic: percentiles, span self time, error rate.

Everything here is pure Python over plain numbers so the tests in
``perfbench/tests`` can pin it without running a workload.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

#: A tail percentile must leave at least this many jobs beyond it.
TAIL_BEYOND = 10


def percentile(values: Iterable[float], p: int) -> float:
    """Nearest-rank ``p``-th percentile (``1 <= p <= 100``) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    if not 1 <= p <= 100:
        raise ValueError(f"percentile must lie in [1, 100], got {p}")
    rank = -(-p * len(ordered) // 100)  # ceil(p·n / 100), exact
    return ordered[rank - 1]


def jobs_beyond(n: int, p: int) -> int:
    """Jobs strictly above the nearest-rank ``p``-th percentile of ``n`` jobs."""
    return n - -(-p * n // 100)


def tail_percentile(n: int, beyond: int = TAIL_BEYOND) -> int:
    """The highest whole percentile (at least the median) of ``n`` jobs that
    leaves ``beyond`` or more jobs above it.

    Raises when even the median leaves fewer, i.e. ``n < 2 * beyond``: such
    a run is too short to report a tail at all.
    """
    if jobs_beyond(n, 50) < beyond:
        raise ValueError(
            f"{n} jobs leave fewer than {beyond} beyond the median; "
            f"a tail needs at least {2 * beyond} jobs"
        )
    p = 50
    while p < 99 and jobs_beyond(n, p + 1) >= beyond:
        p += 1
    return p


def error_rate(failed: int, attempted: int) -> float:
    """Jobs that raised or failed their output check over jobs attempted."""
    if attempted <= 0:
        raise ValueError("error rate of no attempted jobs")
    return failed / attempted


@dataclass(frozen=True, slots=True)
class Span:
    """One timed call: ``parent`` is the id of the enclosing span or None."""

    id: int
    name: str
    parent: int | None
    start_ns: int
    end_ns: int

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


def self_times(spans: Iterable[Span]) -> dict[int, int]:
    """Self time of every span: its duration minus its direct children's.

    Spans come from one thread, so children of one parent never overlap and
    a grandchild's time is already inside its parent's child.
    """
    spans = list(spans)
    own = {span.id: span.duration_ns for span in spans}
    for span in spans:
        if span.parent is not None and span.parent in own:
            own[span.parent] -= span.duration_ns
    return own


def untraced_ns(spans: Iterable[Span], root: str) -> int:
    """Time inside the ``root`` spans (the jobs) that no layer span covers."""
    spans = list(spans)
    own = self_times(spans)
    return sum(own[span.id] for span in spans if span.name == root)
