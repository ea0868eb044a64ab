"""Exact convex hulls and convex-hull membership.

``convex_hull_2d`` and ``convex_polygon_members`` work on tuples of plain
ints or of ``fractions.Fraction`` (the two mix freely) and decide their
answer exactly: no epsilons, no rounding, and results independent of
evaluation order.  ``scale_to_integers`` maps rational points to an integer
view with the same orientations and hull memberships, so the 2D hot paths
and the oracle can run on small ints instead of ``Fraction``;
``shear_normalize`` then gives that view pairwise distinct x, as the planar
solver needs.  All functions are pure, so concurrent use needs no
synchronization.

2D membership splits the counterclockwise hull of ``convex_hull_2d`` once
into two x-monotone chains from its lexicographically smallest vertex L to
its largest R: the lower chain is the cycle from L to R, the upper chain the
rest of the cycle read backwards.  Only two edges can be vertical: the last
edge of the lower chain (up the right side, at x = x_R) and the first edge of
the upper chain (up the left side, at x = x_L).  A point with x in [x_L, x_R]
belongs exactly when it lies on or above the lower chain's edge over its x
and on or below the upper chain's.  The lower edge is the first one whose
right end has x >= p.x (``bisect_left``), the upper edge the last one whose
left end has x <= p.x (``bisect_right``); a vertical lower edge follows an
edge that also ends at x_R, and a vertical upper edge precedes one that also
starts at x_L, so neither search ever picks a vertical edge.  A point costs
two bisects and two cross products, O(log h) instead of one cross product
per edge.  A hull whose vertices share one x (a point or a vertical segment)
reduces to an interval of y.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import gcd, lcm

# A point is a tuple of rationals whose length is the ambient dimension.
Point = tuple


def shear_normalize(points):
    """Shear integer points (x, y) -> (s*x + y, y) so that distinct points get
    distinct x.  Returns ``(new_points, s)``.

    s = 1 signals the identity: the input already had pairwise distinct x
    and is returned unchanged.  Otherwise s = (y spread) // g + 2, where g is
    the smallest gap between distinct x values (g = 1 when there is only
    one).  Then s*g > (y spread) >= |y - y'|, so for x < x' the sheared
    values differ by s*(x' - x) + (y' - y) >= s*g - |y - y'| > 0: the shear
    keeps the x order, breaks x ties by ascending y and leaves every x
    distinct.  It is linear with determinant s > 0, so it keeps every
    orientation sign and hull membership, and s >= 2 tells a shear from the
    identity.  It adds about log2((y spread) / g) bits to x; s = (y spread) +
    1 would add the whole width of y, which doubles x when both are wide.
    """
    distinct_x = {x for x, _ in points}
    if len(distinct_x) == len(points):
        return points, 1
    xs = sorted(distinct_x)
    gap = min((b - a for a, b in zip(xs, xs[1:])), default=1)
    ys = [y for _, y in points]
    s = (max(ys) - min(ys)) // gap + 2
    return [(s * x + y, y) for x, y in points], s


def scale_to_integers(points):
    """Integer images of rational points under one positive scale per axis.

    Axis a is multiplied by the lcm of the denominators of the a-th
    coordinates.  A positive scale per axis multiplies every 2D cross product
    by a positive constant, so it keeps every orientation sign, hull and
    membership answer; it also keeps the lexicographic order of points.  In
    any dimension, including d >= 3, the map is linear and invertible, so
    v = sum l_i u_i with sum l_i = 1 and l_i >= 0 holds for the images
    exactly when it holds for the originals: convex-combination membership
    is kept.
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


def point_in_convex_polygon(p, hull) -> bool:
    """Inclusive membership against a CCW hull as built by convex_hull_2d."""
    return convex_polygon_members([p], hull)[0]


def convex_polygon_members(points, hull):
    """For each 2D point, is it in the closed convex polygon ``hull``?

    ``hull`` is a counterclockwise vertex cycle as built by
    :func:`convex_hull_2d`, starting at its lexicographically smallest
    vertex; the two-chain bisect is in the module docstring.
    """
    if not hull:
        return [False] * len(points)
    r = hull.index(max(hull))
    lower = hull[: r + 1]
    upper = [*hull[r:], hull[0]][::-1]
    x0, x1 = lower[0][0], lower[-1][0]
    if x0 == x1:
        y0, y1 = lower[0][1], upper[-1][1]
        return [px == x0 and y0 <= py <= y1 for px, py in points]
    lx = [v[0] for v in lower]
    ux = [v[0] for v in upper]
    uend = len(upper) - 1
    out = []
    for px, py in points:
        if not x0 <= px <= x1:
            out.append(False)
            continue
        # Edge (chain[i - 1], chain[i]) covers px; see the module docstring.
        i = bisect_left(lx, px, 1)
        (ax, ay), (bx, by) = lower[i - 1], lower[i]
        if (bx - ax) * (py - ay) < (by - ay) * (px - ax):
            out.append(False)
            continue
        i = bisect_right(ux, px, 0, uend)
        (ax, ay), (bx, by) = upper[i - 1], upper[i]
        out.append((bx - ax) * (py - ay) <= (by - ay) * (px - ax))
    return out


def point_in_hull(v, vertices) -> bool:
    """Is v a convex combination of the vertices?  Closed hull, any dimension.

    Scales v and the vertices to integers together (``scale_to_integers``
    keeps convex-combination membership) and decides with
    :func:`hull_members`, so the answer is exact and unconditional.
    """
    if not vertices:
        raise ValueError("point_in_hull requires at least one vertex")
    d = len(v)
    pts = [tuple(Fraction(c) for c in u) for u in [v, *vertices]]
    if any(len(u) != d for u in pts):
        raise ValueError("point_in_hull: dimension mismatch")
    scaled = scale_to_integers(pts)
    return hull_members(scaled[:1], scaled[1:])[0]


def hull_members(points, vertices):
    """For each int point, is it a convex combination of the int vertices?

    One exact phase-I simplex per point (:func:`_convex_combination_feasible`)
    on equality rows ``[vertices; 1 ... 1]`` built once; only the right-hand
    side changes from point to point.  A vertex is inside at once, and a
    point outside the vertices' bounding box is outside without a simplex
    (in 1D the box decides).  Intended for the small point counts that
    exhaustive search and gadget verification produce.
    """
    d = len(vertices[0])
    lo = [min(u[a] for u in vertices) for a in range(d)]
    hi = [max(u[a] for u in vertices) for a in range(d)]
    own = set(vertices)
    rows = [[1] * len(vertices)] + [[u[a] for u in vertices] for a in range(d)]
    out = []
    for p in points:
        if p in own:
            out.append(True)
        elif not all(a <= x <= b for a, x, b in zip(lo, p, hi)):
            out.append(False)
        else:
            out.append(d == 1 or _convex_combination_feasible(rows, (1, *p)))
    return out


def _convex_combination_feasible(rows, rhs) -> bool:
    """Is ``rows @ x == rhs`` for some x >= 0?  ``rows`` and ``rhs`` are ints.

    Phase-I simplex with Bland's rule on an integer tableau.  Rows with a
    negative right-hand side are negated first.  Rows keep a private
    positive scale (they are gcd-reduced after each pivot), which keeps all
    arithmetic in plain ints.  Feasible iff the artificial variables can all
    be driven to zero.
    """
    m = len(rows[0])
    r = len(rows)
    tableau = []
    for i, (row, b) in enumerate(zip(rows, rhs)):
        art = [0] * r
        art[i] = 1
        tableau.append([-x for x in row] + art + [-b] if b < 0 else row + art + [b])
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
