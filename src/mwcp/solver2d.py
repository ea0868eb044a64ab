"""Planar solver: cubic-time dynamic program over concave/convex vertex chains.

An optimal polygon whose vertices have pairwise distinct x splits at its
leftmost and rightmost vertices into a top chain that only turns clockwise
and a bottom chain that only turns counterclockwise.  Chains are scored
through directed edge weights so every enclosed point is counted exactly
once, which lets the two chains be optimized independently per endpoint
pair.

Candidate vertices are the positive points only; other points contribute
through edge weights.  Internally all coordinates and weights are plain
integers: ``scale_to_integers`` scales each axis by a positive constant, and
when two points share an x the integer view is sheared by x -> s*x + y with
s = (y spread) // g + 2, where g is the smallest gap between distinct integer
x values (g = 1 when there is only one).  Then s*g > (y spread) and
|y - y'| <= (y spread), so for x < x' the sheared values differ by at least
s*g - |y - y'| > 0: the shear keeps the x order, breaks x ties by ascending
y and leaves every x distinct.  It is linear with determinant s > 0, so it
keeps every orientation sign, and s >= 2 tells a shear from the identity.
This is the integer form of the K of ``geometry.shear_normalize``.  It adds
about log2((y spread) / g) bits to x; s = (y spread) + 1 would add the
whole width of y, which doubles x when both are wide (the ngon family).
The hot loops therefore run on Python ints and stay exact, and every answer
equals the one for the original instance.

Infeasible DP cells hold an exact integer sentinel, never a float or None:
-(sum |w|) - 1 for C and sum |w| + 1 for V, with w the scaled weights.  A
feasible C or V value sums the weights of distinct points, so it lies in
[-sum |w|, sum |w|]: the sentinel loses every max (C) and min (V) against a
feasible value, and (by the feasible prefix below) no cell is ever computed
from a sentinel, so nothing is added to it.  The sweep stores -V, so both
chains maximise and share the sentinel -(sum |w|) - 1.

Three facts make the pipeline run on plain int compares.

Slope key.  After the shear every x is distinct.  With X = x_max - x_min
and M = X^2 let

    key(a, b) = ((y_b - y_a) * M) // (x_b - x_a)        for x_a < x_b.

Two different slopes p/q and p'/q' with runs 0 < q, q' <= X differ by
|p q' - p' q| / (q q') >= 1 / X^2, so their images under t -> M t differ by
at least 1 and floor(M s) < floor(M s') whenever s < s'.  Equal slopes give
equal keys.  The key is therefore order-isomorphic to the slope, ties
included.  For an x-monotone triple i < j < r the slope of (i, r) is a
weighted mean of the slopes of (i, j) and (j, r), so (i, j, r) is concave
(clockwise or collinear) exactly when key(j, r) <= key(i, j), and convex
exactly when key(i, j) <= key(j, r).  A point q with x_a < x_q < x_b lies on
or below edge (a, b) exactly when key(a, q) <= key(a, b), strictly below
when key(a, q) < key(a, b).  Both angular lists around j are sorted by -key
with stable ties (by decreasing slope, i.e. clockwise), so each first-
compatible row is one ``bisect`` of the left keys into the right keys.

Edge weights by recurrence.  ``bot(a, b)`` / ``top(a, b)`` sum the weights
strictly below / on or below edge (a, b) with x strictly between.  Anchors a
run from right to left.  The points right of a are sorted by (key(a, .), x)
into slope groups; no point right of a has a key strictly between two
consecutive groups.  Take b in group g:

- If a point c of group g-1 lies left of b (take the last one), then c is
  below ab, and for x_q < x_c, q is below ab exactly when key(a, q) <=
  key(a, c), i.e. q is on or below ac.  For x_c < x_q < x_b, q is strictly
  below ab exactly when it is strictly below cb: the open triangle a c b and
  the open segment cb hold only keys strictly between the groups.  So
  bot(a, b) = top(a, c) + w_c + bot(c, b).
- Otherwise, if group g-1 exists, all of it lies right of b; let c' be its
  first point.  b lies above line ac', the only points on ac' right of a are
  group g-1, and the open triangle a b c' holds no point.  So bot(a, c')
  counts bot(a, b) plus exactly the points strictly below bc' between b and
  c': bot(a, b) = bot(a, c') - bot(b, c').
- The lowest group has nothing below it: bot(a, b) = 0.

In every case top(a, b) = bot(a, b) plus the weight of the points of group g
left of b, which are the points on the open segment ab.  Rows of ``bot`` over
all points are kept (a triangular table, since the recurrence reaches bot(c,
b) and bot(b, c') for any points), ``top`` for the current anchor only.  With
one sort per anchor this is O(n^2 log n).

Feasible prefix.  A concave x-monotone chain lies on or above its chord, so
C[i, j, k] (a concave chain i -> j -> ... -> k) exists exactly when (i, j, k)
is concave: then i -> j -> k itself is one.  The feasible i are the prefix of
``left[j]`` with key(i, j) >= key(j, k); its length is the number of
first-compatible pointers fc[j][t] <= p, where p is the last position of k's
tie group in ``right[j]``.  Likewise, for c <= k, C[j, c, k] is feasible
exactly when c sits at a position <= p of ``right[j]``; columns right of k
are not part of slab k and read as the sentinel.  For every feasible i,
fc[j][t] is at most the first position of k's tie group, so k itself lies
between fc[j][t] and p and the suffix maximum the recurrence reads is
feasible.  Each column is stored in ``left[j]`` order: the feasible prefix
is one ``map`` over the fc row, the rest is the sentinel, and the suffix
maximum at position 0 is the best cell for the pair (j, k).  The bottom
chain is the same kernel on the counterclockwise lists with -bot bases: the
min of V is minus the max of -V, and convex turns are concave ones under the
reflection y -> -y, which negates every key.

Witness finishing reuses the same edge tables.  For a candidate set T whose
hull has leftmost vertex L, rightmost vertex R, upper chain U and lower
chain D (both running from L to R), the scaled hull weight is

    sum(top[a][b] for (a, b) in U) + sum(ws[u] for u in U)
        - sum(bot[a][b] for (a, b) in D),

the C - V score the sweep maximises.  Pruning the reconstructed chains to a
maximal vertex set therefore needs at most a small integer hull per trial,
never a ``Fraction`` re-evaluation of the whole instance.  Usually it needs
none.  When every walked vertex is a vertex of the walked set's hull, the
set is in strictly convex position, and so is each of its subsets: a point
of a subset that is not a vertex of the subset's hull lies in the hull of
the subset's other points, so it is no vertex of the whole set's hull either.
A subset of a strictly convex set is strictly convex in the inherited cyclic
order, so the hull of a trial subset is the walked cycle with the dropped
vertices left out, and each trial filters and rotates one cycle and sums the
tables along it.  The hull is rebuilt per trial only when some walked vertex
is not a hull vertex (collinear chain points), since dropping a vertex can
then expose it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import islice, repeat
from math import lcm
from operator import add, itemgetter, neg

from .geometry import convex_hull_2d, scale_to_integers
from .model import (
    Instance,
    Solution,
    best_singleton,
    empty_solution,
    evaluate,
    prune_by_weight,
    require_canonical,
)
# Not called here: perfbench/run.py --trace 1 wraps these names in this module.
from .geometry import shear_normalize  # noqa: F401
from .model import prune_to_maximal  # noqa: F401


@dataclass
class SolverContext:
    """Sheared, integer-scaled, x-sorted view of a canonical 2D instance.

    ``xs``/``ys``/``ws`` hold every instance point in ascending-x order
    (the shear guarantees distinct x), ``orig`` maps sorted positions back
    to instance indices, and ``cand`` lists the sorted positions of the
    positive points.  DP indices below are ordinals into ``cand``.
    ``shear_k`` is the shear factor s = (y spread) // g + 2 of the module
    docstring (g the smallest gap between distinct integer x), so s*g
    exceeds the y spread and s >= 2; it is 1 exactly when no shear was
    applied.  ``slope_scale`` is M = (x_max - x_min)^2 for :func:`slope_key`.
    """

    instance: Instance
    shear_k: int
    weight_scale: int
    slope_scale: int
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
    of degenerate inputs count once overall.  ``nkey[i][j - i - 1]`` is
    -key(i, j) for ordinals i < j, the rows :func:`build_angular_lists`
    sorts; ``solve_2d`` drops them once the lists are built, and equality
    compares only ``top`` and ``bot``.
    """

    top: list[list[int]]
    bot: list[list[int]]
    nkey: list[list[int]] | None = field(default=None, compare=False, repr=False)


@dataclass
class AngularLists:
    """Per-candidate angular orderings of the other candidates.

    ``left[j]``/``right[j]`` hold the ordinals on each side of candidate j
    sorted clockwise around it, i.e. by decreasing slope of the outgoing
    direction (ties by ascending ordinal).  ``left_ccw``/``right_ccw`` are
    the reversals, used by the convex (bottom-chain) mirror.
    ``left_key[j]``/``right_key[j]`` are the sort keys, -key(i, j) and
    -key(j, r) in list order, so both rows ascend.
    """

    left: list[list[int]]
    right: list[list[int]]
    left_ccw: list[list[int]]
    right_ccw: list[list[int]]
    left_key: list[list[int]]
    right_key: list[list[int]]


def build_context(instance: Instance) -> SolverContext:
    if instance.dimension != 2:
        raise ValueError("solver2d requires a 2-dimensional instance")
    require_canonical(instance)
    n = len(instance.points)
    if n == 0:
        return SolverContext(instance, 1, 1, 0, [], [], [], [], [])
    scaled = scale_to_integers([wp.point for wp in instance.points])
    shear = 1
    distinct_x = {x for x, _ in scaled}
    if len(distinct_x) < n:
        ys = [y for _, y in scaled]
        xs = sorted(distinct_x)
        gap = min((b - a for a, b in zip(xs, xs[1:])), default=1)
        shear = (max(ys) - min(ys)) // gap + 2
        scaled = [(shear * x + y, y) for x, y in scaled]
    wscale = lcm(*(wp.weight.denominator for wp in instance.points))
    order = sorted(range(n), key=lambda i: scaled[i][0])
    xs = [scaled[i][0] for i in order]
    ys = [scaled[i][1] for i in order]
    ws = [int(instance.points[i].weight * wscale) for i in order]
    cand = [p for p in range(n) if ws[p] > 0]
    span = xs[-1] - xs[0]
    return SolverContext(instance, shear, wscale, span * span, xs, ys, ws, order, cand)


def _key_row(xs, ys, a: int, scale: int) -> list[int]:
    """[key(a, b) for b = a + 1, ..., len(xs) - 1]; see the module docstring.

    The one place the slope key is computed.
    """
    xa, ya = xs[a], ys[a]
    return [(y - ya) * scale // (x - xa) for x, y in zip(xs[a + 1:], ys[a + 1:])]


def slope_key(ctx: SolverContext, a: int, b: int) -> int:
    """key(a, b) for sorted positions a < b."""
    return _key_row((ctx.xs[a], ctx.xs[b]), (ctx.ys[a], ctx.ys[b]), 0, ctx.slope_scale)[0]


def precompute_edge_weights(ctx: SolverContext) -> EdgeWeights:
    """Edge weights for all candidate pairs by the slope-group recurrence.

    O(n^2 log n) over all n points; the recurrence and its proof are in the
    module docstring.
    """
    xs, ys, ws, cand, scale = ctx.xs, ctx.ys, ctx.ws, ctx.cand, ctx.slope_scale
    n, m = len(xs), len(cand)
    top = [[0] * m for _ in range(m)]
    bot = [[0] * m for _ in range(m)]
    nkey = [[] for _ in range(m)]
    ordinal = dict(zip(cand, range(m)))
    # below[a][b - a - 1] = bot(a, b) over all points.  Inside the loop the
    # offsets o = b - a - 1 index wr, rows, keys, brow and trow.
    below: list[list[int]] = [[] for _ in range(n)]
    for a in range(n - 1, -1, -1):
        wr = ws[a + 1:]
        rows = below[a + 1:]
        keys = _key_row(xs, ys, a, scale)
        order = sorted(range(len(keys)), key=keys.__getitem__)
        brow = [0] * len(keys)
        trow = [0] * len(keys)
        # order[ps:gs] is slope group g-1 and order[gs:pos] the part of group g
        # handled so far, each in ascending x (the sort is stable).
        ps = gs = 0
        last = None
        for pos, o in enumerate(order):
            if keys[o] != last:
                last = keys[o]
                ps, gs, on_edge = gs, pos, 0
            lo = bisect_left(order, o, ps, gs)  # order[ps:lo] lie left of b
            if lo > ps:
                c = order[lo - 1]
                v = trow[c] + wr[c] + rows[c][o - c - 1]
            elif gs > ps:
                c = order[ps]
                v = brow[c] - rows[o][c - o - 1]
            else:
                v = 0
            brow[o] = v
            trow[o] = v + on_edge  # on_edge: weight of group g left of b
            on_edge += wr[o]
        below[a] = brow
        if a in ordinal:
            i = ordinal[a]
            offsets = [b - a - 1 for b in cand[i + 1:]]
            top[i][i + 1:] = map(trow.__getitem__, offsets)
            bot[i][i + 1:] = map(brow.__getitem__, offsets)
            nkey[i] = list(map(neg, map(keys.__getitem__, offsets)))
    return EdgeWeights(top, bot, nkey)


def build_angular_lists(ctx: SolverContext, nkey) -> AngularLists:
    """Clockwise orderings around every candidate, O(n^2 log n) total.

    ``nkey[i][j - i - 1]`` = -key(i, j) for candidate ordinals i < j, as
    ``precompute_edge_weights`` leaves them in ``EdgeWeights.nkey``; one int
    object serves both lists.
    """
    m = len(ctx.cand)
    left, right, left_key, right_key = [], [], [], []
    for j in range(m):
        lk = [nkey[i][j - i - 1] for i in range(j)]
        rk = nkey[j]
        lo = sorted(range(j), key=lk.__getitem__)
        hi = sorted(range(len(rk)), key=rk.__getitem__)
        left.append(lo)
        left_key.append([lk[i] for i in lo])
        right.append([j + 1 + o for o in hi])
        right_key.append([rk[o] for o in hi])
    left_ccw = [l[::-1] for l in left]
    right_ccw = [r[::-1] for r in right]
    return AngularLists(left, right, left_ccw, right_ccw, left_key, right_key)


def compute_first_compatible(ctx: SolverContext, lists: AngularLists):
    """First-compatible pointer tables for both chain recurrences.

    ``fc_top[j][t]`` is the position in ``right[j]`` of the first candidate
    r such that (left[j][t], j, r) is a concave turn, i.e. key(j, r) <=
    key(i, j): the number of right keys above key(i, j).  ``fc_bot`` is the
    same on the counterclockwise lists with the convex test, key(j, r) >=
    key(i, j).  Both rows are nondecreasing.
    """
    fc_top, fc_bot = [], []
    for lk, rk in zip(lists.left_key, lists.right_key):
        fc_top.append(list(map(partial(bisect_left, rk), lk)))
        fc_bot.append([len(rk) - bisect_right(rk, v) for v in reversed(lk)])
    return fc_top, fc_bot


@dataclass
class _Chain:
    """One chain recurrence on a flat triangular slab, maximised.

    The top chain stores C; the bottom chain stores -V, so both run the same
    max kernel and ``sign * value`` is the table entry.  Cell (i, j, k), for
    i = lefts[j][t], sits at slab[j * (j - 1) // 2 + t]: it is base[j][t]
    plus the best cell (j, c, k) over c at positions >= fc[j][t] of
    rights[j], and cell (i, k, k) is base[k][t] + tip[k].  cell[j][pos] is
    the slab index of cell (j, rights[j][pos], .), and reach[j][k - j - 1]
    the last position in rights[j] of k's tie group.  ``none`` is the
    infeasible sentinel.
    """

    lefts: list[list[int]]
    rights: list[list[int]]
    fc: list[list[int]]
    reach: list[list[int]]
    cell: list[list[int]]
    base: list[list[int]]
    tip: list[int]
    none: int
    sign: int


def _reach(rights, keys):
    out = []
    for j, (row, key) in enumerate(zip(rights, keys)):
        reach = [0] * len(row)
        end = len(row) - 1
        for pos in range(len(row) - 1, -1, -1):
            if key[pos] != key[end]:
                end = pos
            reach[row[pos] - j - 1] = end
        out.append(reach)
    return out


def _cells(lefts, rights):
    """cell[j][pos], the slab index of cell (j, rights[j][pos], .)."""
    where = []
    for c, row in enumerate(lefts):
        inv = [0] * c
        for x, i in enumerate(row, c * (c - 1) // 2):
            inv[i] = x
        where.append(inv)
    return [[where[c][j] for c in row] for j, row in enumerate(rights)]


def _chains(ctx: SolverContext, ew: EdgeWeights, lists: AngularLists, fc_top, fc_bot):
    """The top-chain (C) and bottom-chain (-V) recurrences over the same lists."""
    wc = [ctx.ws[p] for p in ctx.cand]
    none = -sum(map(abs, ctx.ws)) - 1
    top, bot = ew.top, ew.bot
    upper = _Chain(
        lists.left, lists.right, fc_top,
        _reach(lists.right, lists.right_key),
        _cells(lists.left, lists.right),
        [[top[i][j] + wc[i] for i in row] for j, row in enumerate(lists.left)],
        wc, none, 1,
    )
    lower = _Chain(
        lists.left_ccw, lists.right_ccw, fc_bot,
        _reach(lists.right_ccw, [key[::-1] for key in lists.right_key]),
        _cells(lists.left_ccw, lists.right_ccw),
        [[-bot[i][j] for i in row] for j, row in enumerate(lists.left_ccw)],
        [0] * len(wc), none, -1,
    )
    return upper, lower


def _fill_slab(ch: _Chain, slab, k: int, best) -> None:
    """Fill columns k, k-1, ..., 1 of slab k; best[j] := best cell (j, c, k).

    Columns right of k must hold the sentinel.
    """
    cell, reach, fc, base, none = ch.cell, ch.reach, ch.fc, ch.base, ch.none
    get = slab.__getitem__
    off = k * (k - 1) // 2
    slab[off:off + k] = map(add, base[k], repeat(ch.tip[k]))
    for j in range(k - 1, -1, -1):
        p = reach[j][k - j - 1]
        # Suffix maxima over positions p, p-1, ..., 0 of rights[j].
        b = none
        d = []
        push = d.append
        for v in map(get, cell[j][p::-1]):
            if v > b:
                b = v
            push(b)
        best[j] = b
        if j:
            d.reverse()
            row = fc[j]
            q = bisect_right(row, p)
            off = j * (j - 1) // 2
            slab[off:off + q] = map(add, base[j], map(d.__getitem__, islice(row, q)))
            slab[off + q:off + j] = repeat(none, j - q)


def _empty_slab(ch: _Chain) -> list[int]:
    m = len(ch.lefts)
    return [ch.none] * (m * (m - 1) // 2)


def _tables(ch: _Chain) -> dict:
    m = len(ch.lefts)
    slab = _empty_slab(ch)
    best = [0] * m
    out = {}
    for k in range(m):
        _fill_slab(ch, slab, k, best)
        for j in range(1, k + 1):
            off = j * (j - 1) // 2
            for i, v in zip(ch.lefts[j], slab[off:off + j]):
                out[(i, j, k)] = None if v == ch.none else ch.sign * v
    return out


def compute_C_tables(ctx: SolverContext, ew: EdgeWeights, lists: AngularLists) -> dict:
    """Every C[i, j, k] entry as a dict (None = infeasible).

    Read off the solver's own slab sweep for the recurrence-isolation suite;
    the solver streams one rightmost-vertex slab at a time.
    """
    return _tables(_chains(ctx, ew, lists, *compute_first_compatible(ctx, lists))[0])


def compute_V_tables(ctx: SolverContext, ew: EdgeWeights, lists: AngularLists) -> dict:
    """Every V[i, j, k] entry as a dict (None = infeasible)."""
    return _tables(_chains(ctx, ew, lists, *compute_first_compatible(ctx, lists))[1])


def _walk(ctx: SolverContext, ch: _Chain, slab, i0: int, k: int):
    """Recover the best chain from i0 to k out of a filled slab k.

    Ties go to the smallest second vertex, then to the first candidate in
    each right list, as the recurrence reads them.
    """
    first = {c: slab[x] for c, x in zip(ch.rights[i0], ch.cell[i0]) if c <= k}
    j = max(sorted(first), key=first.__getitem__)
    path = [i0, j]
    cur = i0
    while j != k:
        t = ch.lefts[j].index(cur)
        start = ch.fc[j][t]
        steps = [
            (slab[x], c)
            for c, x in zip(ch.rights[j][start:], ch.cell[j][start:])
            if c <= k
        ]
        v, nxt = max(steps, key=itemgetter(0))
        assert slab[j * (j - 1) // 2 + t] == ch.base[j][t] + v != ch.none
        path.append(nxt)
        cur, j = j, nxt
    keys = [ch.sign * slope_key(ctx, ctx.cand[a], ctx.cand[b]) for a, b in zip(path, path[1:])]
    assert keys == sorted(keys, reverse=True), "chain turns the wrong way"
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
    return _cycle_weight(ctx, ew, _hull_ordinals(ctx, ordinals))


def _hull_ordinals(ctx: SolverContext, ordinals) -> list[int]:
    """The CCW hull of candidate ordinals, as ordinals, from the leftmost."""
    xs, ys, cand = ctx.xs, ctx.ys, ctx.cand
    at = {(xs[cand[c]], ys[cand[c]]): c for c in ordinals}
    return [at[p] for p in convex_hull_2d(at)]


def _cycle_weight(ctx: SolverContext, ew: EdgeWeights, hull) -> int:
    """:func:`hull_weight_from_tables` for the CCW hull cycle of ordinals.

    ``hull`` starts at its leftmost vertex (the smallest ordinal), as
    ``convex_hull_2d`` does on the distinct sheared x.
    """
    ws, cand = ctx.ws, ctx.cand
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

    The hull of the whole set is built once.  When every member is one of
    its vertices (strictly convex position), every subset is in strictly
    convex position too, and its hull is the cycle in the inherited order
    with the other vertices left out: a trial only filters the cycle and
    rotates it to start at its smallest ordinal.  Otherwise dropping a
    vertex can expose a point that was inside or on an edge, and each trial
    builds its hull again.
    """
    ordinal = {ctx.orig[ctx.cand[c]]: c for c in ordinals}
    cycle = _hull_ordinals(ctx, ordinal.values())

    if len(cycle) == len(ordinal):
        def weight_of(kept):
            keep = set(map(ordinal.__getitem__, kept))
            hull = list(filter(keep.__contains__, cycle))
            s = hull.index(min(hull)) if hull else 0
            return _cycle_weight(ctx, ew, hull[s:] + hull[:s])
    else:
        def weight_of(kept):
            return hull_weight_from_tables(ctx, ew, [ordinal[i] for i in kept])

    return prune_by_weight(ordinal, weight_of)


def solve_2d(instance: Instance, *, allow_empty: bool = True) -> Solution:
    """Exact planar optimum with a reconstructed, maximal vertex witness.

    Runs in O(n^3) time and O(n^2) memory: for each rightmost candidate k
    one slab of C/V columns is filled (right to left, work linear in the
    feasible part of each column thanks to the first-compatible pointers),
    and the best cell per (i, k) falls out of the column fill.  The winning
    slab is refilled once for reconstruction.
    """
    if instance.dimension != 2:
        raise ValueError("solve_2d requires a 2-dimensional instance")
    ctx = build_context(instance)  # also rejects a non-canonical instance
    m = len(ctx.cand)
    if m == 0:
        if allow_empty:
            return empty_solution(2)
        return best_singleton(instance)
    ws, cand = ctx.ws, ctx.cand
    ew = precompute_edge_weights(ctx)
    lists = build_angular_lists(ctx, ew.nkey)
    ew.nkey = None  # the lists hold the keys they sorted by
    upper, lower = _chains(ctx, ew, lists, *compute_first_compatible(ctx, lists))
    del lists  # frees the slope keys; the chains keep the lists they use
    slab_c, slab_v = _empty_slab(upper), _empty_slab(lower)
    rm_c = [0] * m  # rm_c[i]: best C[i, j, k] over j for the current k
    rm_v = [0] * m  # rm_v[i]: best -V[i, j, k] over j

    # (scaled weight, -i, -k): the max prefers the higher weight, then the
    # lexicographically smallest (i, k).
    best = (ws[cand[0]], 0, 0)
    for k in range(m):
        _fill_slab(upper, slab_c, k, rm_c)
        _fill_slab(lower, slab_v, k, rm_v)
        best = max(
            best,
            (ws[cand[k]], -k, -k),
            *zip(map(add, rm_c[:k], rm_v[:k]), range(0, -k, -1), repeat(-k)),
        )

    bw, bi, bk = best[0], -best[1], -best[2]
    weight = Fraction(bw, ctx.weight_scale)
    if allow_empty and weight <= 0:
        return empty_solution(2)

    if bi == bk:
        ordinals = [bi]
    else:
        for ch, slab, rm in ((upper, slab_c, rm_c), (lower, slab_v, rm_v)):
            tail = bk * (bk + 1) // 2
            slab[tail:] = repeat(ch.none, len(slab) - tail)
            _fill_slab(ch, slab, bk, rm)
        assert rm_c[bi] + rm_v[bi] == bw
        ordinals = set(_walk(ctx, upper, slab_c, bi, bk))
        ordinals |= set(_walk(ctx, lower, slab_v, bi, bk))

    chosen, chosen_w = prune_with_tables(ctx, ew, ordinals)
    if chosen_w != bw:
        raise RuntimeError("pruned witness does not keep the optimal table weight")
    sol = evaluate(instance, chosen)
    if sol.weight != weight:
        raise RuntimeError("reconstructed witness does not reproduce the optimum")
    return sol
