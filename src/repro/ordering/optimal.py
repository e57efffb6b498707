"""Optimality machinery for the count-based ordering (Sec. III-B).

The minimisation of Eq. (3) reduces to maximising ``F = sum x_i * y_i``
(Eq. 4) over ways of placing 2N values into two N-lane flits.  Because
swapping the two members of a lane does not change the product, the
search space is exactly the set of perfect matchings of the 2N values
into N lanes.

* :func:`interleaved_assignment` — the paper's count-based solution:
  sort descending and pair adjacent elements
  ``(v1, v2), (v3, v4), ...`` which realises
  ``x1 >= y1 >= x2 >= y2 >= ...``.
* :func:`exhaustive_best_assignment` — brute force over all matchings,
  used by tests/benches to certify global optimality for small N
  (the paper notes 2N = 32 already has > 2.6e35 orderings, hence the
  need for the closed-form strategy).
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

__all__ = [
    "FlitAssignment",
    "interleaved_assignment",
    "exhaustive_best_assignment",
    "pair_product",
    "all_matchings",
]


@dataclass(frozen=True)
class FlitAssignment:
    """A placement of 2N counts into two N-lane flits.

    Attributes:
        flit1: per-lane '1' counts of the first flit.
        flit2: per-lane '1' counts of the second flit.
        objective: ``F = sum_i flit1[i] * flit2[i]`` (Eq. 4).
    """

    flit1: tuple[int, ...]
    flit2: tuple[int, ...]
    objective: int


def pair_product(flit1: Sequence[int], flit2: Sequence[int]) -> int:
    """Eq. (4) objective for one lane-aligned pair of flits."""
    if len(flit1) != len(flit2):
        raise ValueError("flits must have the same number of lanes")
    return sum(int(a) * int(b) for a, b in zip(flit1, flit2))


def interleaved_assignment(counts: Sequence[int]) -> FlitAssignment:
    """Count-based optimal assignment: sort descending, pair adjacent.

    Args:
        counts: an even-length sequence of '1'-bit counts (the 2N
            values to distribute over two flits).

    Returns:
        The assignment realising ``x1 >= y1 >= x2 >= y2 >= ...``.
    """
    if len(counts) % 2 != 0:
        raise ValueError("need an even number of counts (two equal flits)")
    ordered = sorted((int(c) for c in counts), reverse=True)
    flit1 = tuple(ordered[0::2])
    flit2 = tuple(ordered[1::2])
    return FlitAssignment(
        flit1=flit1, flit2=flit2, objective=pair_product(flit1, flit2)
    )


def all_matchings(items: Sequence[int]) -> Iterator[list[tuple[int, int]]]:
    """Enumerate all perfect matchings of an even-length sequence.

    There are ``(2N)! / (N! * 2^N)`` of them; callers keep N small.
    """
    if len(items) % 2 != 0:
        raise ValueError("need an even number of items")
    values = list(items)
    if not values:
        yield []
        return
    first = values[0]
    rest = values[1:]
    for i, partner in enumerate(rest):
        remaining = rest[:i] + rest[i + 1 :]
        for sub in all_matchings(remaining):
            yield [(first, partner)] + sub


def exhaustive_best_assignment(counts: Sequence[int]) -> FlitAssignment:
    """Brute-force the matching maximising Eq. (4).

    Only feasible for small 2N (the growth is the paper's motivation
    for the closed-form ordering); raises for 2N > 12.
    """
    if not counts:
        raise ValueError("no counts supplied")
    if len(counts) > 12:
        raise ValueError(
            f"exhaustive search limited to 12 counts, got {len(counts)}"
        )
    best: FlitAssignment | None = None
    for matching in all_matchings([int(c) for c in counts]):
        flit1 = tuple(max(a, b) for a, b in matching)
        flit2 = tuple(min(a, b) for a, b in matching)
        objective = pair_product(flit1, flit2)
        if best is None or objective > best.objective:
            best = FlitAssignment(flit1=flit1, flit2=flit2, objective=objective)
    if best is None:
        raise ValueError("no counts supplied")
    return best
