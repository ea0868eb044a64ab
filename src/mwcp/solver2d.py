"""Planar solver: cubic-time dynamic program over concave/convex vertex chains.

An optimal polygon whose vertices have pairwise distinct x splits at its
leftmost and rightmost vertices into a top chain that only turns clockwise
and a bottom chain that only turns counterclockwise.  Chains are scored
through directed edge weights so every enclosed point is counted exactly
once, which lets the two chains be optimized independently per endpoint
pair.

Candidate vertices are the positive points only; other points contribute
through edge weights.  Internally all coordinates and weights are rescaled
to plain integers (positive per-axis scaling preserves every orientation
sign), so the hot loops run on Python ints and stay exact.  Infinities are
the tagged value ``None``, never a large number.

Witness finishing reuses the same edge tables.  For a candidate set T whose
hull has leftmost vertex L, rightmost vertex R, upper chain U and lower
chain D (both running from L to R), the scaled hull weight is

    sum(top[a][b] for (a, b) in U) + sum(ws[u] for u in U)
        - sum(bot[a][b] for (a, b) in D),

the C - V score the sweep maximises.  Pruning the reconstructed chains to a
maximal vertex set therefore needs only a small integer hull per trial, never
a ``Fraction`` re-evaluation of the whole instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from math import lcm

from .geometry import convex_hull_2d, scale_to_integers, shear_normalize
from .model import (
    Instance,
    Solution,
    best_singleton,
    empty_solution,
    evaluate,
    prune_by_weight,
    require_canonical,
)
# Not called here: perfbench/run.py --trace 1 wraps this name in this module.
from .model import prune_to_maximal  # noqa: F401

# Full first-compatible pointer re-verification is cubic; keep it for the
# sizes the correctness suites use, below typical benchmark sizes.
_DEBUG_RECHECK_LIMIT = 32


@dataclass
class SolverContext:
    """Sheared, integer-scaled, x-sorted view of a canonical 2D instance.

    ``xs``/``ys``/``ws`` hold every instance point in ascending-x order
    (the shear guarantees distinct x), ``orig`` maps sorted positions back
    to instance indices, and ``cand`` lists the sorted positions of the
    positive points.  DP indices below are ordinals into ``cand``.
    """

    instance: Instance
    shear_k: Fraction
    weight_scale: int
    xs: list[int]
    ys: list[int]
    ws: list[int]
    orig: list[int]
    cand: list[int]


@dataclass
class EdgeWeights:
    """``top[a][b]`` / ``bot[a][b]``: weight on-or-below / strictly-below edge (a, b).

    Indexed by candidate ordinals a < b; sums run over every instance point
    strictly between the endpoints in x.  ``top - bot`` is exactly the
    weight sitting on the open segment, which is what makes boundary points
    of degenerate inputs count once overall.
    """

    top: list[list[int]]
    bot: list[list[int]]


@dataclass
class AngularLists:
    """Per-candidate angular orderings of the other candidates.

    ``left[j]``/``right[j]`` hold the ordinals on each side of candidate j
    sorted clockwise around it, i.e. by decreasing slope of the outgoing
    direction (ties by ascending ordinal).  ``left_ccw``/``right_ccw`` are
    the reversals, used by the convex (bottom-chain) mirror.
    """

    left: list[list[int]]
    right: list[list[int]]
    left_ccw: list[list[int]]
    right_ccw: list[list[int]]


def build_context(instance: Instance) -> SolverContext:
    if instance.dimension != 2:
        raise ValueError("solver2d requires a 2-dimensional instance")
    require_canonical(instance)
    n = len(instance.points)
    if n == 0:
        return SolverContext(instance, Fraction(1), 1, [], [], [], [], [])
    pts = [wp.point for wp in instance.points]
    sheared, k = shear_normalize(pts)
    scaled = scale_to_integers(sheared)
    wscale = lcm(*(wp.weight.denominator for wp in instance.points))
    order = sorted(range(n), key=lambda i: scaled[i][0])
    xs = [scaled[i][0] for i in order]
    ys = [scaled[i][1] for i in order]
    ws = [int(instance.points[i].weight * wscale) for i in order]
    cand = [p for p in range(n) if ws[p] > 0]
    return SolverContext(instance, k, wscale, xs, ys, ws, order, cand)


def precompute_edge_weights(ctx: SolverContext) -> EdgeWeights:
    """Brute-force edge weights for all candidate pairs, O(n^3) total."""
    xs, ys, ws, cand = ctx.xs, ctx.ys, ctx.ws, ctx.cand
    m = len(cand)
    top = [[0] * m for _ in range(m)]
    bot = [[0] * m for _ in range(m)]
    for a in range(m):
        pa = cand[a]
        xa = xs[pa]
        ya = ys[pa]
        trow = top[a]
        brow = bot[a]
        for b in range(a + 1, m):
            pb = cand[b]
            dx = xs[pb] - xa
            dy = ys[pb] - ya
            t = bo = 0
            for q in range(pa + 1, pb):
                c = dx * (ys[q] - ya) - dy * (xs[q] - xa)
                if c <= 0:
                    wq = ws[q]
                    t += wq
                    if c < 0:
                        bo += wq
            trow[b] = t
            brow[b] = bo
    return EdgeWeights(top, bot)


def build_angular_lists(ctx: SolverContext) -> AngularLists:
    """Clockwise orderings around every candidate, O(n^2 log n) total."""
    xs, ys, cand = ctx.xs, ctx.ys, ctx.cand
    m = len(cand)
    left: list[list[int]] = []
    right: list[list[int]] = []
    for j in range(m):
        pj = cand[j]
        xj = xs[pj]
        yj = ys[pj]

        def clockwise(a, b):
            # Both directions point the same way in x, so the sign of
            # cross2(u_a, u_b) orders them by decreasing slope; ties give 0
            # and the stable sort keeps them in ascending ordinal order.
            pa, pb = cand[a], cand[b]
            return (xs[pa] - xj) * (ys[pb] - yj) - (ys[pa] - yj) * (xs[pb] - xj)

        key = cmp_to_key(clockwise)
        lo = sorted(range(j), key=key)
        hi = sorted(range(j + 1, m), key=key)
        left.append(lo)
        right.append(hi)
    left_ccw = [list(reversed(l)) for l in left]
    right_ccw = [list(reversed(r)) for r in right]
    return AngularLists(left, right, left_ccw, right_ccw)


def _turn_sign(ctx: SolverContext, i: int, j: int, r: int) -> int:
    """Sign of cross2(p_r - p_i, p_j - p_i) over candidate ordinals."""
    xs, ys, cand = ctx.xs, ctx.ys, ctx.cand
    pi, pj, pr = cand[i], cand[j], cand[r]
    v = (xs[pr] - xs[pi]) * (ys[pj] - ys[pi]) - (ys[pr] - ys[pi]) * (xs[pj] - xs[pi])
    return (v > 0) - (v < 0)


def _concave(ctx, i, j, r) -> bool:
    return _turn_sign(ctx, i, j, r) >= 0


def _convex(ctx, i, j, r) -> bool:
    return _turn_sign(ctx, i, j, r) <= 0


def compute_first_compatible(ctx: SolverContext, lists: AngularLists):
    """First-compatible pointer tables for both chain recurrences.

    ``fc_top[j][t]`` is the position in ``right[j]`` of the first candidate
    r such that (left[j][t], j, r) is a concave turn; as t advances through
    the clockwise left list the positions never move backward, so a single
    running pointer fills the row in linear time.  ``fc_bot`` mirrors this
    on the counterclockwise lists with the convex test.
    """
    m = len(ctx.cand)
    recheck = __debug__ and m <= _DEBUG_RECHECK_LIMIT

    def build(lefts, rights, ok):
        out = []
        for j in range(m):
            L = lefts[j]
            R = rights[j]
            nr = len(R)
            row = [0] * len(L)
            ptr = 0
            for t, i in enumerate(L):
                while ptr < nr and not ok(ctx, i, j, R[ptr]):
                    ptr += 1
                row[t] = ptr
                if recheck:
                    direct = next(
                        (p for p in range(nr) if ok(ctx, i, j, R[p])), nr
                    )
                    assert direct == ptr, "first-compatible pointer drifted"
            out.append(row)
        return out

    fc_top = build(lists.left, lists.right, _concave)
    fc_bot = build(lists.left_ccw, lists.right_ccw, _convex)
    return fc_top, fc_bot


def _fill_top_column(ctx, ew, lists, fc_top, slab, j, k, dbuf):
    """Write C[i, j, k] into slab[i][j] for all i < j; columns (j, k] are done.

    C[i, j, k] is the best weight (edges on-or-below plus vertex weights) of
    a concave path i -> j -> ... -> k, computed as w_top(i, j) + w(i) plus a
    suffix maximum over the clockwise right list from the first compatible
    successor onward.  Entries stay None when no such path exists, in
    particular when j dips strictly below the chord (i, k).
    """
    xs, ys, ws, cand = ctx.xs, ctx.ys, ctx.ws, ctx.cand
    R = lists.right[j]
    L = lists.left[j]
    fcrow = fc_top[j]
    rowj = slab[j]
    wtop = ew.top
    nr = len(R)
    best = None
    dbuf[nr] = None
    for pos in range(nr - 1, -1, -1):
        c = R[pos]
        if c <= k:
            v = rowj[c]
            if v is not None and (best is None or v > best):
                best = v
        dbuf[pos] = best
    pk, pj = cand[k], cand[j]
    xk, yk = xs[pk], ys[pk]
    xj, yj = xs[pj], ys[pj]
    for t in range(len(L)):
        i = L[t]
        d = dbuf[fcrow[t]]
        if d is None:
            slab[i][j] = None
            continue
        pi = cand[i]
        xi, yi = xs[pi], ys[pi]
        if (xk - xi) * (yj - yi) - (yk - yi) * (xj - xi) < 0:
            slab[i][j] = None
        else:
            slab[i][j] = wtop[i][j] + ws[pi] + d


def _fill_bot_column(ctx, ew, lists, fc_bot, slab, j, k, dbuf):
    """Mirror of :func:`_fill_top_column` for the bottom chain.

    V[i, j, k] is the minimum sub-weight (strictly-below edge weights only,
    no vertex weights) of a convex path, with None when j rises strictly
    above the chord (i, k).
    """
    xs, ys, cand = ctx.xs, ctx.ys, ctx.cand
    R = lists.right_ccw[j]
    L = lists.left_ccw[j]
    fcrow = fc_bot[j]
    rowj = slab[j]
    wbot = ew.bot
    nr = len(R)
    best = None
    dbuf[nr] = None
    for pos in range(nr - 1, -1, -1):
        c = R[pos]
        if c <= k:
            v = rowj[c]
            if v is not None and (best is None or v < best):
                best = v
        dbuf[pos] = best
    pk, pj = cand[k], cand[j]
    xk, yk = xs[pk], ys[pk]
    xj, yj = xs[pj], ys[pj]
    for t in range(len(L)):
        i = L[t]
        d = dbuf[fcrow[t]]
        if d is None:
            slab[i][j] = None
            continue
        pi = cand[i]
        xi, yi = xs[pi], ys[pi]
        if (xk - xi) * (yj - yi) - (yk - yi) * (xj - xi) > 0:
            slab[i][j] = None
        else:
            slab[i][j] = wbot[i][j] + d


def _base_top(ctx, ew, i, k):
    return ew.top[i][k] + ctx.ws[ctx.cand[i]] + ctx.ws[ctx.cand[k]]


def compute_C_tables(ctx: SolverContext, ew: EdgeWeights, lists: AngularLists) -> dict:
    """Every C[i, j, k] entry as a dict (None = infeasible).

    Table form kept for the recurrence-isolation suite; the solver itself
    streams one rightmost-vertex slab at a time.
    """
    m = len(ctx.cand)
    fc_top, _ = compute_first_compatible(ctx, lists)
    slab = [[None] * m for _ in range(m)]
    dbuf = [None] * (m + 1)
    out = {}
    for k in range(m):
        for i in range(k):
            slab[i][k] = _base_top(ctx, ew, i, k)
            out[(i, k, k)] = slab[i][k]
        for j in range(k - 1, 0, -1):
            _fill_top_column(ctx, ew, lists, fc_top, slab, j, k, dbuf)
            for i in range(j):
                out[(i, j, k)] = slab[i][j]
    return out


def compute_V_tables(ctx: SolverContext, ew: EdgeWeights, lists: AngularLists) -> dict:
    """Every V[i, j, k] entry as a dict (None = infeasible)."""
    m = len(ctx.cand)
    _, fc_bot = compute_first_compatible(ctx, lists)
    slab = [[None] * m for _ in range(m)]
    dbuf = [None] * (m + 1)
    out = {}
    for k in range(m):
        for i in range(k):
            slab[i][k] = ew.bot[i][k]
            out[(i, k, k)] = slab[i][k]
        for j in range(k - 1, 0, -1):
            _fill_bot_column(ctx, ew, lists, fc_bot, slab, j, k, dbuf)
            for i in range(j):
                out[(i, j, k)] = slab[i][j]
    return out


def naive_C_tables(ctx: SolverContext, ew: EdgeWeights) -> dict:
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
                if _turn_sign(ctx, i, j, k) < 0:
                    out[(i, j, k)] = None
                    continue
                best = None
                for jp in range(j + 1, k + 1):
                    if _concave(ctx, i, j, jp):
                        v = out[(j, jp, k)]
                        if v is not None and (best is None or v > best):
                            best = v
                out[(i, j, k)] = (
                    None if best is None else ew.top[i][j] + ctx.ws[ctx.cand[i]] + best
                )
    return out


def naive_V_tables(ctx: SolverContext, ew: EdgeWeights) -> dict:
    """Quartic-time direct evaluation of the bottom-chain mirror."""
    m = len(ctx.cand)
    out = {}
    for k in range(m):
        for i in range(k):
            out[(i, k, k)] = ew.bot[i][k]
        for j in range(k - 1, 0, -1):
            for i in range(j):
                if _turn_sign(ctx, i, j, k) > 0:
                    out[(i, j, k)] = None
                    continue
                best = None
                for jp in range(j + 1, k + 1):
                    if _convex(ctx, i, j, jp):
                        v = out[(j, jp, k)]
                        if v is not None and (best is None or v < best):
                            best = v
                out[(i, j, k)] = None if best is None else ew.bot[i][j] + best
    return out


def best_weight_from_tables(ctx: SolverContext, c_tab: dict, v_tab: dict):
    """Best nonempty polygon weight implied by full C/V tables (test helper)."""
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


def _walk_top(ctx, ew, lists, slab, i0, k):
    """Recover the argmax concave chain from i0 to k out of a filled slab."""
    ws, cand = ctx.ws, ctx.cand
    j1 = None
    bestv = None
    for j in range(i0 + 1, k + 1):
        v = slab[i0][j]
        if v is not None and (bestv is None or v > bestv):
            bestv, j1 = v, j
    assert j1 is not None
    path = [i0, j1]
    cur, j = i0, j1
    while j != k:
        nxt = None
        bestn = None
        for c in lists.right[j]:
            if c <= k and _concave(ctx, cur, j, c):
                v = slab[j][c]
                if v is not None and (bestn is None or v > bestn):
                    bestn, nxt = v, c
        assert nxt is not None
        assert slab[cur][j] == ew.top[cur][j] + ws[cand[cur]] + bestn
        path.append(nxt)
        cur, j = j, nxt
    for a in range(len(path) - 2):
        assert _concave(ctx, path[a], path[a + 1], path[a + 2])
    for c in path:
        # cross2(p_k - p_i0, p_c - p_i0) >= 0 means c sits weakly above the chord
        assert c in (i0, k) or _turn_sign(ctx, i0, c, k) >= 0, "top chain below chord"
    return path


def _walk_bot(ctx, ew, lists, slab, i0, k):
    """Recover the argmin convex chain from i0 to k out of a filled slab."""
    j1 = None
    bestv = None
    for j in range(i0 + 1, k + 1):
        v = slab[i0][j]
        if v is not None and (bestv is None or v < bestv):
            bestv, j1 = v, j
    assert j1 is not None
    path = [i0, j1]
    cur, j = i0, j1
    while j != k:
        nxt = None
        bestn = None
        for c in lists.right_ccw[j]:
            if c <= k and _convex(ctx, cur, j, c):
                v = slab[j][c]
                if v is not None and (bestn is None or v < bestn):
                    bestn, nxt = v, c
        assert nxt is not None
        assert slab[cur][j] == ew.bot[cur][j] + bestn
        path.append(nxt)
        cur, j = j, nxt
    for a in range(len(path) - 2):
        assert _convex(ctx, path[a], path[a + 1], path[a + 2])
    for c in path:
        assert c in (i0, k) or _turn_sign(ctx, i0, c, k) <= 0, "bottom chain above chord"
    return path


def hull_weight_from_tables(ctx: SolverContext, ew: EdgeWeights, ordinals):
    """Scaled weight of conv(T) for a set T of candidate ordinals, from the tables.

    With L/R the leftmost/rightmost hull vertices and U/D the upper/lower
    hull chains from L to R, every instance point strictly between L and R
    in x that lies on or below U is in some ``top`` edge sum, the points
    strictly below D are in the ``bot`` sums, and the points level with a
    vertex of U are that vertex alone (x is distinct after the shear).  So

        weight(conv T) * weight_scale
            = sum top[a][b] over edges of U + sum ws[u] over vertices of U
              - sum bot[a][b] over edges of D.

    A collinear T has U = D = [L, R], giving top - bot + w_L + w_R; a single
    point gives its own weight and the empty set 0.  This equals
    ``evaluate(instance, T).weight * weight_scale``.
    """
    xs, ys, ws, cand = ctx.xs, ctx.ys, ctx.ws, ctx.cand
    at = {(xs[cand[c]], ys[cand[c]]): c for c in ordinals}
    hull = [at[p] for p in convex_hull_2d(at)]
    if len(hull) <= 1:
        return sum(ws[cand[c]] for c in hull)
    # CCW from the leftmost vertex: the lower chain runs L -> R, then the
    # upper chain runs R -> L.  Ordinals ascend with x, so R is the largest.
    r = hull.index(max(hull))
    lower = hull[: r + 1]
    upper = hull[r:] + hull[:1]
    top, bot = ew.top, ew.bot
    w = sum(ws[cand[c]] for c in upper)
    for b, a in zip(upper, upper[1:]):
        w += top[a][b]
    for a, b in zip(lower, lower[1:]):
        w -= bot[a][b]
    return w


def prune_with_tables(ctx: SolverContext, ew: EdgeWeights, ordinals):
    """``model.prune_to_maximal`` on candidate ordinals, scored from the tables.

    Same rules (``prune_by_weight``), so the same vertices go.  Returns the
    kept vertices as sorted instance indices, exactly as the model does, and
    their scaled hull weight.
    """
    ordinal = {ctx.orig[ctx.cand[c]]: c for c in ordinals}

    def weight_of(kept):
        return hull_weight_from_tables(ctx, ew, [ordinal[i] for i in kept])

    return prune_by_weight(ordinal, weight_of)


def solve_2d(instance: Instance, *, allow_empty: bool = True) -> Solution:
    """Exact planar optimum with a reconstructed, maximal vertex witness.

    Runs in O(n^3) time and O(n^2) memory: for each rightmost candidate k
    one slab of C/V columns is filled (right to left, linear work per column
    thanks to the first-compatible pointers) and folded into the per-(i, k)
    aggregates.  The winning slab is refilled once for reconstruction.
    """
    if instance.dimension != 2:
        raise ValueError("solve_2d requires a 2-dimensional instance")
    require_canonical(instance)
    ctx = build_context(instance)
    m = len(ctx.cand)
    if m == 0:
        if allow_empty:
            return empty_solution(2)
        return best_singleton(instance)
    ws, cand = ctx.ws, ctx.cand
    ew = precompute_edge_weights(ctx)
    lists = build_angular_lists(ctx)
    fc_top, fc_bot = compute_first_compatible(ctx, lists)
    slab_c = [[None] * m for _ in range(m)]
    slab_v = [[None] * m for _ in range(m)]
    dbuf = [None] * (m + 1)
    rm_c = [None] * m
    rm_v = [None] * m

    best = None  # (scaled weight, i, k); ties prefer lexicographically small (i, k)

    def consider(val, i, k):
        nonlocal best
        if best is None or val > best[0] or (val == best[0] and (i, k) < best[1:]):
            best = (val, i, k)

    for k in range(m):
        consider(ws[cand[k]], k, k)
        for i in range(k):
            c = _base_top(ctx, ew, i, k)
            slab_c[i][k] = c
            rm_c[i] = c
            v = ew.bot[i][k]
            slab_v[i][k] = v
            rm_v[i] = v
        for j in range(k - 1, 0, -1):
            _fill_top_column(ctx, ew, lists, fc_top, slab_c, j, k, dbuf)
            _fill_bot_column(ctx, ew, lists, fc_bot, slab_v, j, k, dbuf)
            for i in range(j):
                v = slab_c[i][j]
                if v is not None and v > rm_c[i]:
                    rm_c[i] = v
                v = slab_v[i][j]
                if v is not None and v < rm_v[i]:
                    rm_v[i] = v
        for i in range(k):
            consider(rm_c[i] - rm_v[i], i, k)

    bw, bi, bk = best
    weight = Fraction(bw, ctx.weight_scale)
    if allow_empty and weight <= 0:
        return empty_solution(2)

    if bi == bk:
        ordinals = [bi]
    else:
        for i in range(bk):
            slab_c[i][bk] = _base_top(ctx, ew, i, bk)
            slab_v[i][bk] = ew.bot[i][bk]
        for j in range(bk - 1, 0, -1):
            _fill_top_column(ctx, ew, lists, fc_top, slab_c, j, bk, dbuf)
            _fill_bot_column(ctx, ew, lists, fc_bot, slab_v, j, bk, dbuf)
        top = _walk_top(ctx, ew, lists, slab_c, bi, bk)
        bot = _walk_bot(ctx, ew, lists, slab_v, bi, bk)
        assert slab_c[bi][top[1]] - slab_v[bi][bot[1]] == bw
        ordinals = set(top) | set(bot)

    chosen, chosen_w = prune_with_tables(ctx, ew, ordinals)
    if chosen_w != bw:
        raise RuntimeError("pruned witness does not keep the optimal table weight")
    sol = evaluate(instance, chosen)
    if sol.weight != weight:
        raise RuntimeError("reconstructed witness does not reproduce the optimum")
    return sol
