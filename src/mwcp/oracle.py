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
* If T is affinely independent, a point lies in the simplex conv(T) exactly
  when its barycentric coordinates exist and are all >= 0.  Gauss-Jordan
  elimination of ``[1 ... 1; points]`` on T's columns by exact-division
  (Bareiss) pivots, :func:`~mwcp.geometry.exact_pivot`, decides every point
  at once: every entry is a minor of the starting matrix (Cramer's rule),
  and every pivot row holds the last pivot D in its own column, so a point
  is inside exactly when the rows without a pivot vanish on its column and
  each pivot-row entry times D is >= 0.  T's elimination is its parent's (T
  minus its largest member) plus one pivot, so a depth-first walk costs one
  pivot per affinely independent subset of at most d + 1 members.

Each row of the n-column matrix is one int, the sum of x_j << w*j
(:func:`~mwcp.geometry.pack_affine`), so a pivot is one
multiply-subtract-divide per row.  A k x k minor is at most k! times the
product of its rows' largest |entry|, so every entry is below 2^(w - 2) in
absolute value for w = the sum over the d + 1 starting rows of
``bit_length(max |entry|)``, plus ``bit_length((d + 1)!)`` + 2.  Each field
of ``pv * row - f * prow`` is a multiple of the previous pivot, so the
packed sum is too, and its exact quotient is the packed quotients.  With B
= 2^(w - 1) in every field (``bias``), each field of row + B lies in [1,
2^w): ``(row + B) >> w*j & (2^w - 1)`` is field j plus 2^(w - 1), and bit
w*j + w - 1 of row + B (of B - row) is set exactly when field j is >= 0
(<= 0).  The walk keeps all n columns and an open mask of those sign bits,
so a subset's inside test is a few mask ANDs
(:func:`~mwcp.geometry.split_columns`).  ``geometry.hull_members`` runs
the same elimination once, on one vertex set, for ``evaluate`` above 2D:
both take each pivot with :func:`~mwcp.geometry.pivot_free_row` and read
the signs with ``split_columns``.

Layers are built one size at a time from the previous one, so at most two
adjacent layers are live: O(C(m, m // 2)) masks for |S+| = m, not 2^m.  The
walk holds at most d + 1 matrices, those on its current path, of d + 1
ints of n*w bits each, and one mask per affinely independent subset whose
simplex holds a point other than its vertices: at most sum of C(m, k) over
k <= r + 1 for a point set of affine rank r <= d, below C(m, m // 2) when
r + 1 <= m / 4 (for example d = 4 and m >= 20).  Coordinates and weights
are the instance's cached ``integer_view``.
"""

from __future__ import annotations

from fractions import Fraction

from .geometry import pack_affine, pivot_free_row, split_columns
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
    no LP).  Weights are the ints of ``Instance.integer_view``, kept per
    layer in a dict keyed by subset: a subset's weight is its parent's (the
    subset minus its largest member, read by key) plus that of the points it
    contains and its parent does not, exact because the parent's hull lies
    inside its own.

    That witness is already maximal.  Dropping a vertex leaves a subset one
    smaller.  Were its weight >= the optimum, it would itself be optimal and
    would have been visited first (the empty set is visited when
    ``allow_empty``; otherwise S+ is nonempty, so the optimum is positive and
    the empty set's 0 is below it), and a later equal weight never replaces
    the incumbent.  Maximality is still re-checked from the contained sets
    of the layer that was live when the incumbent was set, and the final
    ``evaluate``, which also gives the 2D hull cycle, must agree with the
    lattice's weight and contained set.  Above 2D that compares the
    lattice's mask, assembled along the walk's path one pivot per subset and
    by Carathéodory unions, with a fresh one-shot elimination of the
    witness's vertices (``geometry.hull_members``); both use
    ``exact_pivot``, as the LP already did.  Both checks raise
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
    layers = containment_layers(coords, pos)
    prev_layer, prev_weight = next(layers), {0: 0}
    best = (0, 0, 0) if allow_empty else None  # (subset, contained, scaled weight)
    best_child_weight = None
    for layer in layers:
        weight = {}
        for s, c in layer.items():
            p = s ^ 1 << s.bit_length() - 1  # the parent: s minus its largest member
            weight[s] = ws = prev_weight[p] + _mask_weight(c & ~prev_layer[p], iw)
            if best is None or ws > best[2]:
                best = (s, c, ws)
                best_child_weight = max(_mask_weight(prev_layer[s ^ b], iw) for b in _bits(s))
        prev_layer, prev_weight = layer, weight
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
    than its vertices inside its simplex but outside its parent's (the
    subset minus its largest member), when there are any; see :func:`_grow`.
    """
    found = {}
    if coords:
        # The field width and the bias of the module docstring.
        w, bias, packed = pack_affine(coords)
        # The empty subset: no pivots, every point open.
        _grow(found, members, len(coords[0]), (w, bias), 0, (bias, 0, 1, packed))
    return found


def _grow(found, members, d, layout, s, parent):
    """Record in ``found`` the simplex masks of the extensions of subset s by
    each larger member v, and walk on from each one with at most d members,
    a larger member left to add and a point left open.

    ``layout`` is the width w and bias B of the module docstring; ``parent``
    is ``(live, k, pivot, rows)``: the packed eliminated matrix of s, an
    affinely independent set P of k points, with its k pivot rows first,
    each equal to ``pivot`` in its own column, and the mask of the sign bits
    (bit w*i + w - 1 for point i) of the open points: not in P and outside
    the simplex of every subset on the path.  P + v and its supersets are
    dependent when v is not open (v in conv(P)) or no free row is nonzero in
    its column (v in aff(P)); such a v is skipped.  An inside point is
    closed: it lies in the hull of every superset.  A plain function, not a
    closure: a closure that calls itself is a reference cycle, which kept
    every solve's map alive until the next collection.
    """
    w, bias = layout
    live, k, prev, rows = parent
    deeper = s.bit_count() < d
    for j in range(s.bit_length(), len(members)):
        sign = 1 << w * members[j] + w - 1
        if not live & sign:
            continue
        step = pivot_free_row(rows, k, members[j], prev, w, bias)
        if step is None:
            continue
        child, pv = step
        alive = split_columns(child, k + 1, pv, bias, live ^ sign)[1]
        t = s | 1 << j
        if alive:
            found[t] = sum(1 << b.bit_length() // w - 1 for b in _bits(alive))
        if deeper and j + 1 < len(members) and live ^ sign ^ alive:
            _grow(found, members, d, layout, t, (live ^ sign ^ alive, k + 1, pv, child))


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
