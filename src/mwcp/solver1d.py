"""One-dimensional solver: best closed interval via a maximum-subarray pass."""

from __future__ import annotations

from fractions import Fraction

from .model import Instance, Solution, empty_solution, evaluate, require_canonical


def solve_1d(instance: Instance, *, allow_empty: bool = True) -> Solution:
    """Exact optimum in one dimension, O(n log n) from the sort.

    The scan runs on the ints of ``Instance.integer_view``: scaling by
    positive factors keeps the x order and the sign and order of every
    weight sum.  Sorting by x reduces the problem to the maximum-sum
    contiguous run of weights, found by one Kadane pass that extends its run
    while the running sum is >= 0.  So the run ending at e starts at the
    smallest start among the best runs ending at e, and the pass keeps the
    first end e that reaches the maximum, with that start s.  No optimal run
    (s', e') has s' < s: then e' > e, the parts s'..s-1 and e+1..e' would
    sum to 0 and neither could be positive (else s'..e or s..e' would beat
    the maximum), so s'..e would be optimal and start before s.  Ties thus
    break toward the smallest start, then the smallest end.

    Positions count in x order.  The witness is {e} when point e alone
    weighs the optimum, else the endpoints {s, e}.  Weights are nonzero, so
    with a positive optimum both endpoints are positive (dropping a negative
    one would beat the maximum), and the witness is maximal: w[s] < optimum,
    or s..s would be an optimal run ending before e, and w[e] < optimum by
    the choice of witness.  With a nonpositive optimum (``allow_empty=False``
    on an all-negative instance) s = e is the first point of largest weight.
    The witness's weight is checked against the scan's, raising
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
    coords, ws, scale = instance.integer_view
    order = sorted(range(n), key=coords.__getitem__)
    w = [ws[i] for i in order]

    best = None
    cur = start = s = e = 0
    for i, x in enumerate(w):
        if cur < 0:
            cur, start = x, i
        else:
            cur += x
        if best is None or cur > best:
            best, s, e = cur, start, i
    if allow_empty and best <= 0:
        return empty_solution(1)

    chosen = [order[e]] if w[e] == best else [order[s], order[e]]
    weight = Fraction(best, scale)
    sol = evaluate(instance, chosen, allow_nonpositive=best <= 0)
    if sol.weight != weight:
        raise RuntimeError(f"1D witness weighs {sol.weight}, the scan found {weight}")
    return sol
