"""One-dimensional solver: best closed interval via a maximum-subarray pass."""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction

from .model import (
    Instance,
    Solution,
    empty_solution,
    evaluate,
    prune_to_maximal,
    require_canonical,
)


def solve_1d(instance: Instance, *, allow_empty: bool = True) -> Solution:
    """Exact optimum in one dimension, O(n log n) from the sort.

    Sorting by x reduces the problem to the maximum-sum contiguous run of
    weights.  Ties among optimal intervals break toward the leftmost start,
    then the shortest interval; the returned witness is pruned to a maximal
    vertex set.  The witness's weight is checked against the scan's, raising
    ``RuntimeError``, so the check survives ``python -O``.
    """
    if instance.dimension != 1:
        raise ValueError("solve_1d requires a 1-dimensional instance")
    require_canonical(instance)
    n = len(instance.points)
    if n == 0:
        if allow_empty:
            return empty_solution(1)
        raise ValueError("instance has no points; no nonempty solution exists")
    order = sorted(range(n), key=lambda i: instance.points[i].point[0])
    w = [instance.points[i].weight for i in order]

    best = None
    cur = None
    for x in w:
        cur = x if cur is None or cur <= 0 else cur + x
        if best is None or cur > best:
            best = cur
    if allow_empty and best <= 0:
        return empty_solution(1)

    # Recover the optimal (start, end) with the smallest start, then the
    # smallest end, from prefix sums: weight(s..e) = P[e+1] - P[s].
    prefix = [Fraction(0)]
    for x in w:
        prefix.append(prefix[-1] + x)
    ends_by_value: dict[Fraction, list[int]] = {}
    for e in range(n):
        ends_by_value.setdefault(prefix[e + 1], []).append(e)
    s = e = None
    for start in range(n):
        hits = ends_by_value.get(best + prefix[start])
        if not hits:
            continue
        pos = bisect_left(hits, start)
        if pos < len(hits):
            s, e = start, hits[pos]
            break
    if s is None:
        raise RuntimeError("no interval attains the maximum-subarray weight")

    if best <= 0:
        # Only reachable with allow_empty=False on an all-negative instance;
        # the optimum is a single point and maximality is unattainable.
        sol = evaluate(instance, [order[s]], allow_nonpositive=True)
    else:
        sol = evaluate(instance, prune_to_maximal(instance, {order[s], order[e]}))
    if sol.weight != best:
        raise RuntimeError(f"1D witness weighs {sol.weight}, the scan found {best}")
    return sol
