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
  Integer Gauss-Jordan elimination of ``[points; 1 ... 1]`` on T's columns
  decides every point at once.  Its pivots are exact-division (Bareiss)
  steps, :func:`~mwcp.geometry.exact_pivot`: every entry after a pivot is a
  minor of the starting integer matrix, so the division by the previous
  pivot is exact, and every pivot row holds the same last pivot D in its own
  column.  A point's barycentric coordinates are its pivot-row entries over
  D, so it is inside exactly when the rows without a pivot vanish on its
  column and each pivot-row entry times D is >= 0.  T's elimination is its
  parent's (T minus its largest member) plus one pivot on the new vertex's
  column, so a depth-first walk over the subsets costs one pivot per
  affinely independent subset of at most d + 1 members.

Subsets are generated one size layer at a time from the previous layer, so
at most two adjacent layers are live: O(C(m, m // 2)) masks for |S+| = m,
not 2^m.  The walk holds the matrices of the subsets on its current path
only, at most d + 1 of them with (d + 1) x n ints each, and it keeps one
mask per affinely independent subset whose simplex holds a point other
than its vertices: at most sum of C(m, k) over k <= r + 1 for a point set
of affine rank r <= d, which is below C(m, m // 2) when r + 1 <= m / 4
(for example d = 4 and m >= 20).  Coordinates and weights are the
instance's cached ``integer_view``.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction

from .geometry import exact_pivot
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
    no LP) and weights are summed as the ints of ``Instance.integer_view``.

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
    coords, iw, scale = instance.integer_view
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
    the caller holds at most two of them.  The simplices' own members come
    from :func:`_simplex_masks` before the first layer.
    """
    simplex = _simplex_masks(coords, members)
    bits = [1 << i for i in members]
    prev = {0: 0}
    yield prev
    for _ in members:
        layer = {}
        # Extending each subset by a larger member, in the previous layer's
        # order, lists the new layer in lexicographic order.
        for s, contained in prev.items():
            for j in range(s.bit_length(), len(members)):
                t = s | 1 << j
                union = contained | bits[j] | simplex.get(t, 0)
                rest = s
                while rest:
                    low = rest & -rest
                    union |= prev[t ^ low]
                    rest ^= low
                layer[t] = union
        prev = layer
        yield layer


def _simplex_masks(coords, members):
    """Map each affinely independent subset of ``members`` (a bitmask as in
    :func:`containment_layers`, at most d + 1 members) to the points other
    than its vertices inside its simplex but outside its parent's, when
    there are any.  The parent is the subset minus its largest member.

    A depth-first walk over the subsets, each extended by a larger member:
    a subset reuses its parent's eliminated matrix and costs one pivot
    (:func:`_extend`).  Only the matrices on the current path are live, at
    most d + 1 of them.  A dependent subset is not extended, because every
    superset of it is dependent too.
    """
    found = {}
    if coords:
        n = len(coords)
        d = len(coords[0])
        # The empty subset: no pivots, every point an open column.
        rows = [[1] * n] + [[p[a] for p in coords] for a in range(d)]
        _grow(found, members, d, 0, (list(range(n)), 0, 1, rows))
    return found


def _grow(found, members, d, s, parent):
    """Record in ``found`` the simplex masks of the extensions of subset s,
    whose eliminated matrix is ``parent``, by each larger member, and walk
    on from each extension that has at most d members and a larger member
    left to add.  A plain function, not a closure: a closure that calls
    itself is a reference cycle, which kept every solve's map alive until
    the next garbage collection."""
    grows = s.bit_count() < d
    m = len(members)
    for j in range(s.bit_length(), m):
        child = _extend(parent, members[j], grows and j + 1 < m)
        if child is None:
            continue
        t = s | 1 << j
        inside, matrix = child
        if inside:
            found[t] = inside
        if matrix is not None:
            _grow(found, members, d, t, matrix)


def _extend(parent, v, keep):
    """One exact-division pivot that extends the parent's simplex by vertex v.

    ``parent`` is ``(cols, k, pivot, rows)``: the Gauss-Jordan eliminated
    integer matrix ``[points; 1 ... 1]`` of an affinely independent subset P
    of k points, kept only on ``cols``, the sorted indices of the points
    outside conv(P).  The first k rows are pivot rows, each equal to
    ``pivot`` in its own (dropped) vertex column; the other rows are free
    and vanish on P's columns.  Returns None when P + v is affinely
    dependent: v lies in conv(P) (its column was dropped) or in aff(P) (no
    free row is nonzero in its column).  Otherwise returns ``(inside,
    matrix)``: the bitmask of the open points other than v that lie in
    conv(P + v), and, when ``keep``, P + v's own ``(cols, k + 1, pivot,
    rows)`` on the points left outside, or None when none are left.

    The pivot is :func:`~mwcp.geometry.exact_pivot`, from pivot 1 on the
    empty subset's matrix.  A pivot updates each column from that column
    alone, so dropping columns changes no other entry: every entry stays a
    minor and the division stays exact (see the module docstring), and the
    new pivot is P + v's common D.  A point is inside exactly when the free
    rows vanish on its column and each pivot row's entry times D is >= 0,
    whatever the sign of D.  Dropping the inside columns is safe: such a
    point lies in the hull of every superset.
    """
    cols, k, prev, rows = parent
    c = bisect_left(cols, v)
    if c == len(cols) or cols[c] != v:
        return None
    pr = next((r for r in range(k, len(rows)) if rows[r][c]), None)
    if pr is None:
        return None
    pv = rows[pr][c]
    rows = exact_pivot(rows, pr, c, prev)
    # The new pivot row goes after the old ones.
    rows.insert(k, rows.pop(pr))
    alive = [q for q in range(len(cols)) if q != c]
    for row in rows[k + 1:]:
        alive = [q for q in alive if not row[q]]
    for row in rows[:k + 1]:
        alive = [q for q in alive if row[q] * pv >= 0]
    inside = 0
    for q in alive:
        inside |= 1 << cols[q]
    if not keep or len(alive) == len(cols) - 1:
        return inside, None
    out = set(alive)
    out.add(c)
    rest = [q for q in range(len(cols)) if q not in out]
    return inside, ([cols[q] for q in rest], k + 1, pv, [[row[q] for q in rest] for row in rows])


def _bits(mask):
    """The set bits of ``mask`` as powers of two, lowest first."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def _mask_weight(mask, iw):
    """Sum of ``iw[i]`` over the set bits i of ``mask``, lowest bit first."""
    total = 0
    while mask:
        low = mask & -mask
        total += iw[low.bit_length() - 1]
        mask ^= low
    return total
