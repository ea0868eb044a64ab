"""Ground-truth solver: exhaustive search over subsets of the positive points.

Only subsets of S+ need enumeration: any optimal polytope can be replaced
by the hull of the positive points it contains without losing weight, so
some optimum has all its vertices in S+.

No linear program runs during the enumeration.  Each subset T gets its
contained set, a bitmask over the instance points, from the subset lattice:

* Carathéodory: if T is affinely dependent, every point of conv(T) is a
  convex combination of an affinely independent proper subset of T, which
  lies inside some T - x; and conv(T - x) is inside conv(T).  So
  contained(T) is the union of contained(T - x) over x in T.
* If T is affinely independent, conv(T) is a simplex and a point lies in it
  exactly when its unique barycentric coordinates exist and are all >= 0.
  One fraction-free integer Gauss-Jordan elimination of
  ``[T | targets; 1 ... 1]`` decides every target at once, and only the
  points outside the children's union are targets.

Subsets are generated one size layer at a time from the previous layer, so
at most two adjacent layers are live: O(C(m, m // 2)) masks for |S+| = m,
not 2^m.  Coordinates are scaled to integers once per solve.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm

from .geometry import scale_to_integers
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
    is the canonical witness.  Contained sets come from
    :func:`containment_layers` (see the module docstring for why that needs
    no LP) and weights are summed as ints under one lcm scale.

    That witness is already maximal.  Dropping a vertex leaves a subset one
    smaller.  Were its weight >= the optimum, it would itself be optimal and
    would have been visited first (the empty set is visited when
    ``allow_empty``; otherwise S+ is nonempty, so the optimum is positive and
    the empty set's 0 is below it), and a later equal weight never replaces
    the incumbent.  Maximality is still re-checked from the child weights of
    the layer that was live when the incumbent was set, and the final
    ``evaluate`` (the LP path, which also gives the 2D hull cycle) must agree
    with the lattice's weight and contained set.  Both checks raise
    ``RuntimeError`` and so survive ``python -O``.  Refuses instances whose
    |S+| exceeds ``limit``.
    """
    require_canonical(instance)
    pos = instance.positive_indices()
    if len(pos) > limit:
        raise OracleSizeError(
            f"{len(pos)} positive points exceed the exhaustive-search bound of {limit}"
        )
    if not pos:
        return empty_solution(instance.dimension) if allow_empty else best_singleton(instance)
    scale = lcm(*(wp.weight.denominator for wp in instance.points))
    iw = [wp.weight.numerator * (scale // wp.weight.denominator) for wp in instance.points]
    coords = scale_to_integers([wp.point for wp in instance.points])
    best = None  # (subset bitmask, contained bitmask, scaled weight)
    best_child_weight = None
    prev_weight: dict[int, int] = {}
    for size, layer in enumerate(containment_layers(coords, pos)):
        weight = {s: _mask_weight(c, iw) for s, c in layer.items()}
        if size or allow_empty:
            for s, c in layer.items():
                if best is None or weight[s] > best[2]:
                    best = (s, c, weight[s])
                    best_child_weight = max(
                        (prev_weight[s ^ b] for b in _bits(s)), default=None
                    )
        prev_weight = weight
    subset, contained, w = best
    if best_child_weight is not None and best_child_weight >= w:
        raise RuntimeError("oracle witness is not maximal")
    sol = evaluate(instance, [pos[b.bit_length() - 1] for b in _bits(subset)])
    if sol.weight != Fraction(w, scale) or sol.contained != tuple(
        b.bit_length() - 1 for b in _bits(contained)
    ):
        raise RuntimeError("oracle lattice disagrees with evaluate on its witness")
    return sol


def containment_layers(coords, members):
    """Yield, for each size k = 0 .. len(members), the contained sets of the
    k-subsets of ``members``.

    ``coords`` are the instance points as int tuples; ``members`` lists the
    indices whose subsets are enumerated.  Each layer is a dict from subset
    bitmask (bit j for ``members[j]``) to contained bitmask (bit i when
    ``coords[i]`` lies in the closed hull of the subset), in lexicographic
    order of the subsets.  A layer is built from the previous one only, so
    the caller holds at most two of them.
    """
    n = len(coords)
    prev = {0: 0}
    yield prev
    for size in range(1, len(members) + 1):
        layer = {}
        for combo in itertools.combinations(range(len(members)), size):
            s = 0
            own = 0
            for j in combo:
                s |= 1 << j
                own |= 1 << members[j]
            union = own
            for j in combo:
                union |= prev[s ^ (1 << j)]
            if size <= len(coords[0]) + 1:
                targets = [i for i in range(n) if not union >> i & 1]
                if targets:
                    inside = _simplex_members(coords, [members[j] for j in combo], targets)
                    for i in inside or ():
                        union |= 1 << i
            layer[s] = union
        prev = layer
        yield layer


def _simplex_members(coords, vertices, targets):
    """The targets inside conv(vertices), or None when the vertices are
    affinely dependent.

    Fraction-free Gauss-Jordan elimination on the integer matrix
    ``[vertices | targets; 1 ... 1]`` (one column per point, d coordinate
    rows and an affine row); rows are reduced by their gcd after each step.
    A target is inside when the rows without a pivot are zero in its column
    (consistent) and each barycentric coordinate, the ratio of its entry to
    the row's pivot, is >= 0.
    """
    k = len(vertices)
    cols = list(vertices) + list(targets)
    rows = [[1] * len(cols)] + [[coords[i][a] for i in cols] for a in range(len(coords[0]))]
    for c in range(k):
        pr = next((r for r in range(c, len(rows)) if rows[r][c]), None)
        if pr is None:
            return None
        rows[c], rows[pr] = rows[pr], rows[c]
        prow = rows[c]
        piv = prow[c]
        for r in range(len(rows)):
            f = rows[r][c]
            if r == c or not f:
                continue
            row = [x * piv - f * y for x, y in zip(rows[r], prow)]
            g = gcd(*row)
            rows[r] = [x // g for x in row] if g > 1 else row
    return [
        cols[t]
        for t in range(k, len(cols))
        if all(rows[r][t] == 0 for r in range(k, len(rows)))
        and all(rows[r][t] * rows[r][r] >= 0 for r in range(k))
    ]


def _bits(mask):
    """The set bits of ``mask`` as powers of two, lowest first."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def _mask_weight(mask, iw):
    return sum(iw[b.bit_length() - 1] for b in _bits(mask))
