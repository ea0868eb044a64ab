"""Ground-truth solver: exhaustive search over subsets of the positive points.

Only subsets of S+ need enumeration: any optimal polytope can be replaced
by the hull of the positive points it contains without losing weight, so
some optimum has all its vertices in S+.
"""

from __future__ import annotations

import itertools

from .model import (
    Instance,
    Solution,
    best_singleton,
    empty_solution,
    evaluate,
    require_canonical,
)
# Not called here: perfbench/run.py --trace 1 wraps this name in this module.
from .model import prune_to_maximal  # noqa: F401

DEFAULT_LIMIT = 20


class OracleSizeError(RuntimeError):
    """Too many positive points for exhaustive subset enumeration."""


def solve_bruteforce(
    instance: Instance, *, limit: int = DEFAULT_LIMIT, allow_empty: bool = True
) -> Solution:
    """Exact optimum in any dimension by subset enumeration over S+.

    Subsets are visited by increasing size, then lexicographically, and only
    strictly better weights replace the incumbent, so the first optimum found
    is the canonical witness.

    That witness is already maximal.  Dropping a vertex leaves a subset one
    smaller.  Were its weight >= the optimum, it would itself be optimal and
    would have been visited first (the empty set is visited when
    ``allow_empty``; otherwise S+ is nonempty, so the optimum is positive and
    the empty set's 0 is below it), and a later equal weight never replaces
    the incumbent.  So ``prune_to_maximal`` would return the witness
    unchanged; maximality is only re-checked, by a check that raises and so
    survives ``python -O``.  Refuses instances whose |S+| exceeds ``limit``.
    """
    require_canonical(instance)
    pos = instance.positive_indices()
    if len(pos) > limit:
        raise OracleSizeError(
            f"{len(pos)} positive points exceed the exhaustive-search bound of {limit}"
        )
    if not pos:
        return empty_solution(instance.dimension) if allow_empty else best_singleton(instance)
    best: Solution | None = None
    for size in range(0 if allow_empty else 1, len(pos) + 1):
        for combo in itertools.combinations(pos, size):
            sol = evaluate(instance, combo)
            if best is None or sol.weight > best.weight:
                best = sol
    for v in best.chosen:
        rest = [u for u in best.chosen if u != v]
        if evaluate(instance, rest).weight >= best.weight:
            raise RuntimeError("oracle witness is not maximal")
    return best
