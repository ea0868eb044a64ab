"""Exact planar predicates, convex hulls, and convex-hull membership.

The predicates, ``convex_hull_2d`` and ``point_in_convex_polygon`` work on
tuples of plain ints or of ``fractions.Fraction`` (the two mix freely) and
decide their answer exactly: no epsilons, no rounding, and results
independent of evaluation order.  ``scale_to_integers`` maps rational points
to an integer view with the same orientations, so the 2D hot paths can run
on small ints instead of ``Fraction``.  All functions are pure, so
concurrent use needs no synchronization.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import gcd, lcm

# A point is a tuple of rationals whose length is the ambient dimension.
Point = tuple


class Orientation(Enum):
    """Turn direction of an ordered point triple (sign of the 2D cross)."""

    CLOCKWISE = -1
    COLLINEAR = 0
    COUNTERCLOCKWISE = 1


def cross2(u, v):
    """Exact 2D cross product ``u.x * v.y - u.y * v.x``."""
    if len(u) != 2 or len(v) != 2:
        raise ValueError("cross2 requires 2-dimensional vectors")
    return u[0] * v[1] - u[1] * v[0]


def orientation(p, q, r) -> Orientation:
    """Orientation of the path p -> q -> r."""
    s = cross2((q[0] - p[0], q[1] - p[1]), (r[0] - p[0], r[1] - p[1]))
    if s > 0:
        return Orientation.COUNTERCLOCKWISE
    if s < 0:
        return Orientation.CLOCKWISE
    return Orientation.COLLINEAR


def is_concave_turn(p, q, r) -> bool:
    """True when the x-monotone path p -> q -> r turns clockwise or not at all.

    Collinear triples count as concave; the middle point then lies on the
    edge and disappears when the polygon is canonicalized.
    """
    if not (p[0] < q[0] < r[0]):
        raise ValueError("is_concave_turn requires p.x < q.x < r.x")
    return cross2((r[0] - p[0], r[1] - p[1]), (q[0] - p[0], q[1] - p[1])) >= 0


def is_convex_turn(p, q, r) -> bool:
    """Mirror of :func:`is_concave_turn`; collinear triples count as convex."""
    if not (p[0] < q[0] < r[0]):
        raise ValueError("is_convex_turn requires p.x < q.x < r.x")
    return cross2((r[0] - p[0], r[1] - p[1]), (q[0] - p[0], q[1] - p[1])) <= 0


def shear_normalize(points):
    """Shear (x, y) -> (x + y/K, y) until distinct points get distinct x.

    Returns ``(new_points, K)``.  K = 1 signals the identity: the input
    already had pairwise distinct x coordinates and is returned unchanged.
    Otherwise K = 1 + (y spread) / (smallest nonzero x gap), which provably
    breaks every tie.  The map is affine with unit determinant, so it
    preserves orientations, hull membership, and polytope weights exactly.
    """
    pts = [tuple(Fraction(c) for c in p) for p in points]
    for p in pts:
        if len(p) != 2:
            raise ValueError("shear_normalize requires 2-dimensional points")
    distinct = set(pts)
    xs = sorted({p[0] for p in distinct})
    if len(xs) == len(distinct):
        return pts, Fraction(1)
    ys = [p[1] for p in distinct]
    spread = max(ys) - min(ys)
    gaps = [b - a for a, b in zip(xs, xs[1:])]
    k = Fraction(1) + (spread / min(gaps) if gaps else spread)
    sheared = [(p[0] + p[1] / k, p[1]) for p in pts]
    assert len({q[0] for q in set(sheared)}) == len(set(sheared))
    return sheared, k


def scale_to_integers(points):
    """Integer images of rational points under one positive scale per axis.

    Axis a is multiplied by the lcm of the denominators of the a-th
    coordinates.  A positive scale per axis multiplies every 2D cross product
    by a positive constant, so it keeps every orientation sign, hull and
    membership answer; it also keeps the lexicographic order of points.
    """
    if not points:
        return []
    scales = [lcm(*(p[a].denominator for p in points)) for a in range(len(points[0]))]
    return [
        tuple(c.numerator * (s // c.denominator) for c, s in zip(p, scales))
        for p in points
    ]


def convex_hull_2d(points):
    """Convex hull vertices in counterclockwise order.

    Starts at the lexicographically smallest vertex.  Collinear boundary
    points are dropped; degenerate inputs yield the 0-, 1-, or 2-point hull.
    The vertices are input tuples, so int input gives an int hull.
    """
    pts = sorted({tuple(p) for p in points})
    for p in pts:
        if len(p) != 2:
            raise ValueError("convex_hull_2d requires 2-dimensional points")
    if len(pts) <= 1:
        return list(pts)

    def half(seq):
        chain = []
        for p in seq:
            while len(chain) >= 2:
                o, a = chain[-2], chain[-1]
                if (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0]) <= 0:
                    chain.pop()
                else:
                    break
            chain.append(p)
        return chain

    lower = half(pts)
    upper = half(list(reversed(pts)))
    return lower[:-1] + upper[:-1]


def point_on_segment(p, a, b) -> bool:
    """Is p on the closed segment ab?  Exact, 2D."""
    if orientation(a, b, p) is not Orientation.COLLINEAR:
        return False
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def segments_intersect(p1, p2, q1, q2) -> bool:
    """Do the closed segments p1p2 and q1q2 share at least one point?"""
    o1 = orientation(p1, p2, q1)
    o2 = orientation(p1, p2, q2)
    o3 = orientation(q1, q2, p1)
    o4 = orientation(q1, q2, p2)
    if o1 is not o2 and o3 is not o4:
        return True
    col = Orientation.COLLINEAR
    if o1 is col and point_on_segment(q1, p1, p2):
        return True
    if o2 is col and point_on_segment(q2, p1, p2):
        return True
    if o3 is col and point_on_segment(p1, q1, q2):
        return True
    if o4 is col and point_on_segment(p2, q1, q2):
        return True
    return False


def point_in_convex_polygon(p, hull) -> bool:
    """Inclusive membership against a CCW hull as built by convex_hull_2d."""
    h = len(hull)
    if h == 0:
        return False
    if h == 1:
        return tuple(p) == tuple(hull[0])
    if h == 2:
        return point_on_segment(p, hull[0], hull[1])
    px, py = p[0], p[1]
    for i in range(h):
        ax, ay = hull[i - 1]
        bx, by = hull[i]
        if (bx - ax) * (py - ay) - (by - ay) * (px - ax) < 0:
            return False
    return True


def point_in_hull(v, vertices) -> bool:
    """Is v a convex combination of the vertices?  Closed hull, any dimension.

    Decided by exact rational linear feasibility (phase-I simplex over
    integers), so the answer is unconditional.  Intended for the small point
    counts that exhaustive search and gadget verification produce.
    """
    if not vertices:
        raise ValueError("point_in_hull requires at least one vertex")
    d = len(v)
    vs = [tuple(Fraction(c) for c in u) for u in vertices]
    target = tuple(Fraction(c) for c in v)
    for u in vs:
        if len(u) != d:
            raise ValueError("point_in_hull: dimension mismatch")
    if target in vs:
        return True
    if d == 1:
        lo = min(u[0] for u in vs)
        hi = max(u[0] for u in vs)
        return lo <= target[0] <= hi
    # bounding-box cull before the simplex
    for a in range(d):
        lo = min(u[a] for u in vs)
        hi = max(u[a] for u in vs)
        if not lo <= target[a] <= hi:
            return False
    return _convex_combination_feasible(target, vs)


def _int_rows(target, vertices):
    """Equality system [coords; affine row] scaled to integers, rhs >= 0."""
    d = len(target)
    rows = []
    for a in range(d):
        rows.append([u[a] for u in vertices] + [target[a]])
    rows.append([Fraction(1)] * len(vertices) + [Fraction(1)])
    out = []
    for row in rows:
        fr = [Fraction(x) for x in row]
        den = lcm(*(f.denominator for f in fr))
        ints = [f.numerator * (den // f.denominator) for f in fr]
        if ints[-1] < 0:
            ints = [-x for x in ints]
        out.append(ints)
    return out


def _convex_combination_feasible(target, vertices) -> bool:
    """Phase-I simplex with Bland's rule on an integer tableau.

    Rows keep a private positive scale (they are gcd-reduced after each
    pivot), which keeps all arithmetic in plain ints.  Feasible iff the
    artificial variables can all be driven to zero.
    """
    m = len(vertices)
    r = len(target) + 1
    rows = _int_rows(target, vertices)
    tableau = []
    for i, row in enumerate(rows):
        art = [0] * r
        art[i] = 1
        tableau.append(row[:-1] + art + [row[-1]])
    ncols = m + r + 1
    basis = list(range(m, m + r))

    while True:
        art_rows = [i for i in range(r) if basis[i] >= m]
        if not art_rows:
            return True
        # Reduced cost of lambda column j is -sum over artificial-basic rows
        # of T[i][j] / T[i][basis[i]]; scale by the product of the (positive)
        # basic pivots to stay in integers.
        prod = 1
        for i in art_rows:
            prod *= tableau[i][basis[i]]
        mult = [prod // tableau[i][basis[i]] for i in art_rows]
        enter = -1
        for j in range(m):
            s = 0
            for i, f in zip(art_rows, mult):
                s += tableau[i][j] * f
            if s > 0:
                enter = j
                break
        if enter < 0:
            return all(tableau[i][-1] == 0 for i in art_rows)
        # ratio test: min rhs_i / T[i][enter] over positive entries
        leave = -1
        ln = ld = None
        for i in range(r):
            t = tableau[i][enter]
            if t <= 0:
                continue
            num = tableau[i][-1]
            if leave < 0 or num * ld < ln * t or (
                num * ld == ln * t and basis[i] < basis[leave]
            ):
                leave, ln, ld = i, num, t
        assert leave >= 0, "phase-I objective is bounded; a pivot row must exist"
        piv = tableau[leave][enter]
        lrow = tableau[leave]
        for i in range(r):
            if i == leave:
                continue
            f = tableau[i][enter]
            if f == 0:
                continue
            row = tableau[i]
            new = [row[c] * piv - f * lrow[c] for c in range(ncols)]
            g = 0
            for x in new:
                g = gcd(g, x)
            if g > 1:
                new = [x // g for x in new]
            tableau[i] = new
        g = 0
        for x in lrow:
            g = gcd(g, x)
        if g > 1:
            tableau[leave] = [x // g for x in lrow]
        basis[leave] = enter
