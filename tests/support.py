"""Shared helpers for the test suite: brute-force references and witness checks."""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cmp_to_key
from math import gcd

from mwcp.geometry import convex_hull_2d
from mwcp.model import Instance, Solution, WeightedPoint, evaluate
from mwcp import solver2d
from mwcp.solver2d import EdgeWeights, _key_row


def random_instance(rng, n, dimension, weight_lo=-5, weight_hi=5, grid=None):
    """Random canonical instance: distinct grid points, nonzero weights."""
    grid = grid if grid is not None else max(4 * n, 12)
    seen = set()
    rows = []
    while len(rows) < n:
        coords = tuple(Fraction(rng.randint(0, grid)) for _ in range(dimension))
        if coords in seen:
            continue
        seen.add(coords)
        w = 0
        while w == 0:
            w = rng.randint(weight_lo, weight_hi)
        rows.append(WeightedPoint(coords, Fraction(w)))
    return Instance(dimension, tuple(rows))


def random_rational(rng, span=20, den=8):
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def degenerate_instance_2d(rng, kind, n):
    """Small canonical 2D instance built to hit one degeneracy.

    ``kind`` is "collinear" (most points on one line), "shared_x" (three x
    values, so the solver must shear) or "rational" (small-denominator
    coordinates).  Weights are small rationals of either sign.
    """
    seen = set()
    rows = []
    while len(rows) < n:
        if kind == "collinear" and rng.random() < 0.7:
            a = rng.randint(0, 8)
            p = (Fraction(a), Fraction(2 * a + 1))
        elif kind == "shared_x":
            p = (Fraction(rng.choice([0, 2, 5])), Fraction(rng.randint(0, 6)))
        elif kind == "rational":
            p = (random_rational(rng, 6, 5), random_rational(rng, 6, 5))
        else:
            p = (Fraction(rng.randint(0, 6)), Fraction(rng.randint(0, 6)))
        if p in seen:
            continue
        seen.add(p)
        w = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2, 3]))
        rows.append(WeightedPoint(p, w))
    return Instance(2, tuple(rows))


def orientation(p, q, r) -> int:
    """Sign of the turn p -> q -> r: 1 counterclockwise, -1 clockwise, 0 none."""
    c = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    return (c > 0) - (c < 0)


def point_on_segment(p, a, b) -> bool:
    """Is p on the closed segment ab?"""
    return (
        orientation(a, b, p) == 0
        and min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def segments_intersect(p1, p2, q1, q2) -> bool:
    """Do the closed segments p1p2 and q1q2 share a point?  Four orientations."""
    o1, o2 = orientation(p1, p2, q1), orientation(p1, p2, q2)
    o3, o4 = orientation(q1, q2, p1), orientation(q1, q2, p2)
    if o1 != o2 and o3 != o4:
        return True
    return (
        (o1 == 0 and point_on_segment(q1, p1, p2))
        or (o2 == 0 and point_on_segment(q2, p1, p2))
        or (o3 == 0 and point_on_segment(p1, q1, q2))
        or (o4 == 0 and point_on_segment(p2, q1, q2))
    )


def convex_polygon_reference(p, hull) -> bool:
    """Inclusive membership in a CCW hull by one cross product per edge, O(h)."""
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


def in_hull_reference(v, vertices):
    """Independent membership test: search affinely independent subsets of
    size <= d+1 whose simplex contains v (exact barycentric solve)."""
    d = len(v)
    vs = [tuple(Fraction(c) for c in u) for u in vertices]
    if tuple(Fraction(c) for c in v) in vs:
        return True
    for size in range(1, d + 2):
        for subset in itertools.combinations(vs, size):
            coeffs = _barycentric(v, subset)
            if coeffs is not None and all(c >= 0 for c in coeffs):
                return True
    return False


def reference_containment_layers(coords, members):
    """The oracle's lattice layers with every simplex eliminated from scratch.

    Same contract as :func:`mwcp.oracle.containment_layers`: Carathéodory
    unions of the children, plus, for each subset of at most d + 1 members,
    a full Gauss-Jordan elimination of ``[subset | targets; 1 ... 1]``
    (:func:`_simplex_members`) instead of one pivot on the parent's matrix.
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


def _barycentric(v, subset):
    """Solve sum l_i u_i = v, sum l_i = 1 exactly; None if no unique solution."""
    d = len(v)
    m = len(subset)
    rows = [[Fraction(u[a]) for u in subset] + [Fraction(v[a])] for a in range(d)]
    rows.append([Fraction(1)] * m + [Fraction(1)])
    # Gauss-Jordan with partial pivoting by nonzero
    pivots = []
    r = 0
    for c in range(m):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            return None  # affinely dependent subset; a smaller one covers it
        rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        rows[r] = [x / piv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    for i in range(r, len(rows)):
        if rows[i][-1] != 0:
            return None  # inconsistent
    return [rows[i][-1] for i in range(m)]


def brute_max_interval(instance):
    """All-intervals reference for the 1D solver, with its exact tie order."""
    n = len(instance.points)
    order = sorted(range(n), key=lambda i: instance.points[i].point[0])
    w = [instance.points[i].weight for i in order]
    best = None  # (weight, s, e)
    for s in range(n):
        acc = Fraction(0)
        for e in range(s, n):
            acc += w[e]
            if best is None or acc > best[0]:
                best = (acc, s, e)
    return best, order


def assert_valid_witness(instance, sol: Solution):
    """Witness validity: reproducible weight, convex CCW hull, maximality."""
    again = evaluate(instance, sol.chosen)
    assert again.weight == sol.weight
    assert tuple(again.contained) == tuple(sol.contained)
    assert set(sol.chosen) <= set(sol.contained)
    if not sol.chosen:
        assert sol.weight == 0
    if instance.dimension == 2:
        assert sol.hull == again.hull
        hull_pts = [instance.points[i].point for i in sol.hull or ()]
        h = len(hull_pts)
        if h >= 3:
            for a in range(h):
                turn = orientation(
                    hull_pts[a], hull_pts[(a + 1) % h], hull_pts[(a + 2) % h]
                )
                assert turn == 1
        assert set(sol.hull or ()) <= set(sol.chosen)
    for v in sol.chosen:
        rest = [u for u in sol.chosen if u != v]
        assert evaluate(instance, rest).weight < sol.weight, "witness not maximal"


# ---------------------------------------------------------------------------
# Planar DP references: direct cross-product predicates, independent of the
# solver's slope keys, recurrences and pointer tables.
# ---------------------------------------------------------------------------


def turn_sign(ctx, i, j, r):
    """Sign of cross2(p_r - p_i, p_j - p_i) over candidate ordinals."""
    xs, ys, cand = ctx.xs, ctx.ys, ctx.cand
    pi, pj, pr = cand[i], cand[j], cand[r]
    v = (xs[pr] - xs[pi]) * (ys[pj] - ys[pi]) - (ys[pr] - ys[pi]) * (xs[pj] - xs[pi])
    return (v > 0) - (v < 0)


def slope_key(ctx, a, b):
    """key(a, b) of the ``solver2d`` docstring for sorted positions a < b."""
    return _key_row((ctx.xs[a], ctx.xs[b]), (ctx.ys[a], ctx.ys[b]), 0, ctx.slope_scale)[0]


def boundary_cycle(ctx, ordinals):
    """The candidate ordinals on the boundary of their own hull, as a cycle.

    Counterclockwise from the smallest ordinal, with the points inside hull
    edges in order along each edge.  A collinear set comes out ascending.
    Built from ``convex_hull_2d`` on the sheared view and one segment test
    per point and edge, independent of the solver's walk.
    """
    at = {(ctx.xs[ctx.cand[c]], ctx.ys[ctx.cand[c]]): c for c in ordinals}
    hull = convex_hull_2d(at)
    if len(hull) <= 2:
        return sorted(at.values())
    cycle = []
    for a, b in zip(hull, hull[1:] + hull[:1]):
        inner = [p for p in at if p not in (a, b) and point_on_segment(p, a, b)]
        inner.sort(key=lambda p: abs(p[0] - a[0]))
        cycle += [at[a]] + [at[p] for p in inner]
    return cycle


def corner_count(ctx, ordinals) -> int:
    """The number of hull vertices of the candidates with these ordinals."""
    return len(convex_hull_2d({(ctx.xs[ctx.cand[c]], ctx.ys[ctx.cand[c]]) for c in ordinals}))


def is_boundary_cycle(ctx, cycle) -> bool:
    """Is ``cycle`` a boundary cycle of its own points, as ``_cycle_weight`` takes?

    Outside the collinear case it must equal :func:`boundary_cycle`; a
    collinear set may put its inner points on either side, so it must rise
    from its smallest ordinal to its largest and fall back.
    """
    if len(set(cycle)) != len(cycle) or cycle[0] != min(cycle):
        return False
    if corner_count(ctx, cycle) >= 3:
        return cycle == boundary_cycle(ctx, cycle)
    r = cycle.index(max(cycle))
    rise, fall = cycle[: r + 1], cycle[r:]
    return rise == sorted(rise) and fall == sorted(fall, reverse=True)


def brute_edge_weights(ctx):
    """Edge weights by scanning every point between each candidate pair, O(n^3)."""
    xs, ys, ws, cand = ctx.xs, ctx.ys, ctx.ws, ctx.cand
    m = len(cand)
    top = [[0] * m for _ in range(m)]
    bot = [[0] * m for _ in range(m)]
    for a in range(m):
        pa = cand[a]
        for b in range(a + 1, m):
            pb = cand[b]
            dx = xs[pb] - xs[pa]
            dy = ys[pb] - ys[pa]
            for q in range(pa + 1, pb):
                c = dx * (ys[q] - ys[pa]) - dy * (xs[q] - xs[pa])
                if c <= 0:
                    top[a][b] += ws[q]
                    if c < 0:
                        bot[a][b] += ws[q]
    return EdgeWeights(top, bot)


def cmp_angular_lists(ctx):
    """The clockwise lists right of each candidate, by an integer cross-product
    comparator."""
    xs, ys, cand = ctx.xs, ctx.ys, ctx.cand
    m = len(cand)
    right = []
    for j in range(m):
        pj = cand[j]

        def clockwise(a, b):
            # Both directions point the same way in x, so the sign of
            # cross2(u_a, u_b) orders them by decreasing slope; ties give 0
            # and the stable sort keeps them in ascending ordinal order.
            pa, pb = cand[a], cand[b]
            return (xs[pa] - xs[pj]) * (ys[pb] - ys[pj]) - (ys[pa] - ys[pj]) * (
                xs[pb] - xs[pj]
            )

        right.append(sorted(range(j + 1, m), key=cmp_to_key(clockwise)))
    return right


def direct_key_rows(ctx):
    """rows[i][j - i - 1] = -key(i, j) over candidate ordinals, from ``_key_row``."""
    cx = [ctx.xs[p] for p in ctx.cand]
    cy = [ctx.ys[p] for p in ctx.cand]
    return [[-k for k in _key_row(cx, cy, i, ctx.slope_scale)] for i in range(len(cx))]


def _base_top(ctx, ew, i, k):
    return ew.top[i][k] + ctx.ws[ctx.cand[i]] + ctx.ws[ctx.cand[k]]


def naive_C_tables(ctx, ew):
    """Quartic-time direct evaluation of the top-chain recurrence.

    Independent of the angular lists and pointer trick; serves as the
    reference the accelerated tables are checked against entry for entry.
    """
    m = len(ctx.cand)
    out = {}
    for k in range(m):
        for i in range(k):
            out[(i, k, k)] = _base_top(ctx, ew, i, k)
        for j in range(k - 1, 0, -1):
            for i in range(j):
                if turn_sign(ctx, i, j, k) < 0:
                    out[(i, j, k)] = None
                    continue
                best = None
                for jp in range(j + 1, k + 1):
                    if turn_sign(ctx, i, j, jp) >= 0:
                        v = out[(j, jp, k)]
                        if v is not None and (best is None or v > best):
                            best = v
                out[(i, j, k)] = (
                    None if best is None else ew.top[i][j] + ctx.ws[ctx.cand[i]] + best
                )
    return out


def naive_V_tables(ctx, ew):
    """Quartic-time direct evaluation of the bottom-chain mirror."""
    m = len(ctx.cand)
    out = {}
    for k in range(m):
        for i in range(k):
            out[(i, k, k)] = ew.bot[i][k]
        for j in range(k - 1, 0, -1):
            for i in range(j):
                if turn_sign(ctx, i, j, k) > 0:
                    out[(i, j, k)] = None
                    continue
                best = None
                for jp in range(j + 1, k + 1):
                    if turn_sign(ctx, i, j, jp) <= 0:
                        v = out[(j, jp, k)]
                        if v is not None and (best is None or v < best):
                            best = v
                out[(i, j, k)] = None if best is None else ew.bot[i][j] + best
    return out


def _tables(ch) -> dict:
    """Every cell (i, j, k) of one chain, read off the solver's own sweep.

    Cell (i, j, k) is base(i, j) + sufmax at fc(i, j) of column j, feasible
    when j == k or fc(i, j) <= p(j, k); positions past p hold stale maxima.
    """
    m = len(ch.order)
    sufmax = solver2d._empty_slab(ch)
    best = [0] * m
    out = {}
    for k in range(m):
        solver2d._fill_slab(ch, sufmax, k, best)
        for i in range(k):
            for j, base, at in zip(ch.order[i], ch.bases[i], ch.addrs[i]):
                if j > k:
                    continue
                if j < k:
                    p = len(ch.order[j]) - 1 - ch.start[j][k - j - 1]
                    if at - ch.doff[j] > p:  # fc(i, j) > p(j, k): infeasible
                        out[(i, j, k)] = None
                        continue
                out[(i, j, k)] = ch.sign * (base + sufmax[at])
    return out


def compute_C_tables(ctx, ew, lists) -> dict:
    """Every C[i, j, k] entry as a dict (None = infeasible).

    Read off the solver's own sweep (``solver2d._chains`` and
    ``_fill_slab``) for the recurrence-isolation suite; the solver streams
    one rightmost-vertex slab at a time.
    """
    return _tables(solver2d._chains(ctx, ew, lists)[0])


def compute_V_tables(ctx, ew, lists) -> dict:
    """Every V[i, j, k] entry as a dict (None = infeasible)."""
    return _tables(solver2d._chains(ctx, ew, lists)[1])


def best_weight_from_tables(ctx, c_tab, v_tab):
    """Best nonempty polygon weight implied by full C/V tables."""
    m = len(ctx.cand)
    ws, cand = ctx.ws, ctx.cand
    best = None
    for k in range(m):
        if best is None or ws[cand[k]] > best:
            best = ws[cand[k]]
        for i in range(k):
            maxc = minv = None
            for j in range(i + 1, k + 1):
                c = c_tab[(i, j, k)]
                if c is not None and (maxc is None or c > maxc):
                    maxc = c
                v = v_tab[(i, j, k)]
                if v is not None and (minv is None or v < minv):
                    minv = v
            if maxc is not None and minv is not None and maxc - minv > best:
                best = maxc - minv
    return None if best is None else Fraction(best, ctx.weight_scale)
