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

Membership in any dimension above 1 (:func:`hull_members`) appends the
points as columns to ``[1 ... 1; vertices]`` and eliminates once with
exact-division (Bareiss) pivots, :func:`exact_pivot`, on rows packed one int
each (:func:`pack_affine`), through :func:`pivot_free_row`: the step the
oracle's subset walk runs one pivot at a time.  Every point's answer is then
read from sign bits (:func:`split_columns`, :func:`sign_bits`), and only the
points that an affinely dependent vertex set leaves open run the exact
phase-I simplex.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import factorial, lcm

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

    In 1D the vertices' interval decides.  Above, one exact elimination
    decides every point of an affinely independent vertex set.  The points
    are appended as columns to the rows ``[1 ... 1; vertices]``, packed by
    :func:`pack_affine`, and each vertex column is pivoted once by
    :func:`pivot_free_row`, as in the oracle's subset walk, unless no free
    row (one without a pivot) is nonzero in it: that vertex lies in the
    affine hull of those pivoted before it.  Every entry is then a minor of the starting matrix,
    and by Cramer's rule, with D the last pivot, :func:`split_columns`
    sorts the points:

    * a free row is nonzero at the point: it is off aff(V), so outside;
    * every free row is 0 there and every pivot-row entry has the sign of
      D: it is a convex combination of the pivoted vertices, so inside;
    * otherwise it has barycentric coordinates on the pivoted vertices and
      one is negative.  When every vertex was pivoted (V is affinely
      independent) they are unique, so it is outside.  Else it is open.

    Only a dependent vertex set leaves points open, and only those run an
    exact phase-I simplex (:func:`_convex_combination_feasible`) on the
    vertex rows, packed (:func:`_membership_lp`) when the first one needs
    it.  An open vertex is inside at once, and an open point outside the
    vertices' bounding box is outside without a simplex.  No step works on
    a whole packed row once per point, so the time grows as n log n in the
    number n of points.
    """
    m, d = len(vertices), len(vertices[0])
    if d == 1:  # conv(V) is the interval [lo, hi]
        lo, hi = min(vertices)[0], max(vertices)[0]
        return [lo <= p[0] <= hi for p in points]
    w, bias, packed = pack_affine([*vertices, *points])
    k, pivot = 0, 1
    for c in range(m):
        if step := pivot_free_row(packed, k, c, pivot, w, bias):
            packed, pivot = step
            k += 1
    flat, inside = split_columns(packed, k, pivot, bias, bias >> w * m << w * m)
    out = sign_bits(inside, w, m, len(points))
    if k < m and flat != inside:
        own = set(vertices)
        lo = [min(u[a] for u in vertices) for a in range(d)]
        hi = [max(u[a] for u in vertices) for a in range(d)]
        lp = None
        for i, (p, on) in enumerate(zip(points, sign_bits(flat, w, m, len(points)))):
            if out[i] or not on:
                continue
            if p in own:
                out[i] = True
            elif all(a <= x <= b for a, x, b in zip(lo, p, hi)):
                if lp is None:
                    lp = _membership_lp([[1] * m] + [[u[a] for u in vertices] for a in range(d)])
                out[i] = _convex_combination_feasible(lp, (1, *p))
    return out


def pack_affine(points):
    """``(w, bias, rows)``: the d + 1 rows of ``[1 ... 1; points]``, one
    column per int point, packed one int each for :func:`exact_pivot`, with
    a field width w that fits every minor.

    A k x k minor is at most k! times the product of its rows' largest
    |entry|, so every minor is below 2^(w - 2) in absolute value when w is
    the sum over the rows of ``bit_length(max |entry|)``, plus
    ``bit_length((d + 1)!)`` + 2 (the ``mwcp.oracle`` docstring has the
    whole argument).  ``bias`` holds 2^(w - 1) in every field.
    """
    d = len(points[0])
    rows = [[1] * len(points)] + [[p[a] for p in points] for a in range(d)]
    w = sum(max(map(abs, r)).bit_length() for r in rows) + factorial(d + 1).bit_length() + 2
    packed = [_pack(row, w) for row in rows]
    return w, packed[0] << w - 1, packed


def _pack(fields, w):
    """``sum(x << w*j for j, x in enumerate(fields))``.  Long lists are packed
    by halves, so the cost is n log n field widths rather than the n^2 of
    adding each field to the growing sum."""
    if len(fields) <= 64:
        return sum(x << w * j for j, x in enumerate(fields))
    h = len(fields) // 2
    return _pack(fields[:h], w) + (_pack(fields[h:], w) << w * h)


def sign_bits(mask, w, start, count):
    """For j = start, ..., start + count - 1: is bit w*j + w - 1 of ``mask``
    set?  ``mask`` is below 2^(w*(start + count)).  One pass over its binary
    digits rather than one shift of the whole mask per column."""
    width = w * (start + count)
    return [b == "1" for b in format(mask, f"0{width}b")[::-1][w * start + w - 1 :: w]]


def pivot_free_row(rows, k, c, prev, w, bias):
    """``(rows, pv)`` after one :func:`exact_pivot` on field c of the first
    free row (``rows[k:]``, those without a pivot) where it is nonzero, pv
    being that field, with the new pivot row moved to index k; None when
    field c of every free row is 0.  ``prev`` is the last pivot (1 before
    the first)."""
    shift, half, mask = w * c, 1 << w - 1, (1 << w) - 1
    for pr in range(k, len(rows)):
        if pv := ((rows[pr] + bias) >> shift & mask) - half:
            break
    else:
        return None
    rows = exact_pivot(rows, pr, c, prev, w, bias)
    if pr != k:  # the new pivot row goes after the old ones
        rows.insert(k, rows.pop(pr))
    return rows, pv


def split_columns(rows, k, pivot, bias, cols):
    """``(flat, inside)``: the sign bits among ``cols`` of the columns where
    every free row of ``rows`` is 0, and of those among them where every
    pivot-row field also has the sign of ``pivot`` or is 0.

    ``rows`` are packed as for :func:`exact_pivot`, the k pivot rows first;
    the sign bit of column j is bit w*j + w - 1.  That bit of row + bias
    (of bias - row) is set exactly when field j is >= 0 (<= 0).  The pivot
    rows are read only when some column is flat.
    """
    for row in rows[k:]:
        cols &= (row + bias) & (bias - row)
    inside = cols
    if inside:
        if pivot > 0:
            for row in rows[:k]:
                inside &= row + bias
        else:
            for row in rows[:k]:
                inside &= bias - row
    return cols, inside


def exact_pivot(rows, pr, c, prev, w, bias):
    """The packed rows after one pivot on field c of ``rows[pr]``; ``prev``
    is the previous pivot (1 before the first).

    A row is one int, the sum of its fields x_j << w*j, |x_j| < 2^(w - 1);
    ``bias`` holds 2^(w - 1) in every field, so field c is ``((row + bias)
    >> w*c & (2^w - 1)) - 2^(w - 1)``.  Each row r != pr becomes ``(pv * row
    - f * rows[pr]) // prev``, pv and f being field c of ``rows[pr]`` and of
    the row; the pivot row is kept.  This is Bareiss' integer-preserving
    elimination: from an integer matrix and prev = 1, every entry after a
    pivot is a minor of that matrix, so each field divides exactly, hence so
    does the packed sum, whose quotient is the packed quotients.  Every
    pivot row holds the last pivot in its own column.  The caller picks w so
    that every minor fits a field.
    """
    s = w * c
    half, mask = 1 << w - 1, (1 << w) - 1
    prow = rows[pr]
    pv = ((prow + bias) >> s & mask) - half
    return [
        prow if r == pr
        else (pv * row - f * prow) // prev if (f := ((row + bias) >> s & mask) - half)
        else pv * row // prev
        for r, row in enumerate(rows)
    ]


def _membership_lp(rows):
    """``rows`` packed as the phase-I tableau of ``rows @ x == rhs``, x >= 0:
    ``(m, w, bias, pos, neg)``.

    Row i's fields are ``rows[i]``, artificial column m + i and ``rhs[i]``;
    ``pos[i]`` and ``neg[i]`` pack it without rhs, ``rows[i]`` as it is and
    negated.  Entries off the rhs are minors of ``[rows | I]`` and the
    entering test sums up to r rows, so w is the rows' summed bit lengths of
    their largest |entry| (1 at least), plus ``bit_length(r!)``,
    ``bit_length(r)`` and 2.  Any rhs fits: it is the top field, unmasked.
    """
    r, m = len(rows), len(rows[0])
    w = sum(max(1, *map(abs, row)).bit_length() for row in rows)
    w += factorial(r).bit_length() + r.bit_length() + 2
    bias = _pack([1] * (m + r + 1), w) << w - 1
    packed = [_pack(row, w) for row in rows]
    art = [1 << w * (m + i) for i in range(r)]
    return m, w, bias, [a + p for a, p in zip(art, packed)], [a - p for a, p in zip(art, packed)]


def _convex_combination_feasible(lp, rhs) -> bool:
    """Is ``rows @ x == rhs`` for some x >= 0?  ``lp`` is ``rows`` as packed
    by :func:`_membership_lp`, ``rhs`` a tuple of ints.

    Phase-I simplex with Bland's rule on the packed tableau, rows of
    negative rhs negated.  Every pivot is an :func:`exact_pivot`, so every
    basic column holds the last pivot D, which stays positive because the
    ratio test only picks positive pivots.  Column j's reduced cost is then
    -(sum over artificial-basic rows of T[i][j]) / D, so Bland's entering
    column is the lowest field of that sum that is > 0, which is where the
    sign bit of ``bias - sum`` is clear.  The ratio test reads two fields
    per row.  Feasible iff the artificial variables can all reach zero.
    """
    m, w, bias, pos, neg = lp
    half, mask = 1 << w - 1, (1 << w) - 1
    rs = w * (m + len(pos))
    tableau = [n - (b << rs) if b < 0 else p + (b << rs) for p, n, b in zip(pos, neg, rhs)]
    columns = bias & (1 << w * m) - 1  # the sign bits of the m columns
    basis = list(range(m, m + len(pos)))
    prev = 1

    while True:
        art_rows = [t for t, b in zip(tableau, basis) if b >= m]
        if not art_rows:
            return True
        positive = columns & ~(bias - sum(art_rows))
        if not positive:
            return all((t + bias) >> rs == half for t in art_rows)
        enter = (positive & -positive).bit_length() // w - 1
        assert enter not in basis, "a basic column's reduced cost is 0"
        # ratio test: min rhs_i / T[i][enter] over positive entries
        s = w * enter
        leave = -1
        ln = ld = None
        for i, row in enumerate(tableau):
            u = row + bias
            t = (u >> s & mask) - half
            if t <= 0:
                continue
            num = (u >> rs) - half
            if leave < 0 or num * ld < ln * t or (
                num * ld == ln * t and basis[i] < basis[leave]
            ):
                leave, ln, ld = i, num, t
        assert leave >= 0, "phase-I objective is bounded; a pivot row must exist"
        tableau = exact_pivot(tableau, leave, enter, prev, w, bias)
        prev = ld
        basis[leave] = enter
