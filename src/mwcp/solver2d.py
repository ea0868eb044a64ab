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
``geometry.shear_normalize`` shears that view by x -> s*x + y when two points
share an x.  Its docstring proves that the shear keeps the x order, breaks x
ties by ascending y, leaves every x distinct and keeps every orientation
sign.  The hot loops therefore run on Python ints and stay exact, and every
answer equals the one for the original instance.

Infeasible DP cells are never stored, and the one sentinel is an exact
integer, never a float or None: none = -(sum |w|) - 1, with w the scaled
weights.  The sweep stores -V, so both chains maximise.  A feasible C or -V
value sums the weights of distinct points, so it lies in [-sum |w|, sum |w|]
and beats none; the suffix maxima below say how none enters a max and why it
never wins one.

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
when key(a, q) < key(a, b).  The angular list right of each candidate is
sorted by -key with stable ties (by decreasing slope, i.e. clockwise), so
each first-compatible pointer is one ``bisect`` of a key into such a list.

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

Suffix maxima.  A concave x-monotone chain lies on or above its chord, so
C[i, j, k] (a concave chain i -> j -> ... -> k) exists exactly when (i, j, k)
is concave: then i -> j -> k itself is one.  Let p = p(j, k) be the last
position of k's tie group in ``right[j]``, which is sorted by decreasing
key(j, .).  The c <= k at positions <= p are exactly the c <= k with key(j,
c) >= key(j, k), so by the weighted mean they are exactly the c that make
(j, c, k) concave.  The first-compatible pointer fc(i, j), the first position
of ``right[j]`` that turns concavely after i, always starts a tie group, so
(i, j, k) is concave exactly when fc(i, j) <= p, and then k itself lies
between fc(i, j) and p.  So the sweep stores, for slab k, only the suffix
maxima of each column j < k: sufmax(j, f), the best cell (j, c, k) over
positions f..p, for f = 0..p.  Cell (i, j, k) is never stored: it is base(i,
j) + sufmax(j, fc(i, j)), and cell (i, k, k) is base(i, k) + tip(k).  Column
j's maxima come from one pass over the cells (j, c, k) for c at positions p,
p-1, ..., 0, each read as base(j, c) + sufmax(c, fc(j, c)).  Two facts make
every such read exact.

- c <= k at a position <= p(j, k) implies fc(j, c) <= p(c, k).  For c = k
  there is nothing to show: column k holds tip(k) in every slot.  For c < k,
  key(j, c) >= key(j, k), and key(j, k) is a weighted mean of key(j, c) and
  key(c, k) (the key is order-isomorphic to the slope), so key(c, k) <=
  key(j, k) <= key(j, c).  So (j, c, k) is concave, k is compatible after j
  at c, and fc(j, c) is at most the first position of k's tie group in
  ``right[c]``, which is <= p(c, k).  A read of a column left of k therefore
  never reaches the positions past p(c, k), which keep stale maxima of
  earlier slabs.
- Columns right of k hold 2 * none, so a read from one is base + 2 * none.
  Every base is a signed sum of weights of distinct points, so base <=
  sum |w|, and base + 2 * none <= -sum |w| - 2 < none < every feasible
  value.  Such a read never wins a max: k itself, feasible, sits at a
  position <= p.

Each column has a slot for every fc in 0..|right[c]|, since fc(j, c) can be
past the last position of ``right[c]``.  The rows of the sweep run over each
right list in reverse reading order, so slab k reads a tail of each row: one
gather-add and one running max per column, stored with one slice
assignment.  The suffix maximum at position 0 is the best cell for the pair
(j, k).  The bottom chain is the top chain of the reflection y -> -y, which
negates every key and turns convex chains into concave ones: one builder
makes its rows from the counterclockwise lists, with each key row reversed
and negated (so it ascends again) and -bot bases, and the same kernel
maximises -V, whose max is minus the min of V.

Witness finishing reuses the same edge tables.  The walk gives the top
path i0 -> ... -> k and the bottom path i0 -> ... -> k of the optimum, and
the prune runs on one cycle: the bottom path, then the top path back
without its ends or any point already on the bottom path.  Every trial
filters that cycle, rotates it to its smallest ordinal and sums the tables
along it (``_cycle_weight``); no hull is built.  This is exact on every
input:

- The top path is a weakly concave x-monotone chain, so it lies on or
  above the chord i0 k; the bottom path is weakly convex, so it lies on or
  below it.  Their union is therefore in weakly convex position, and the
  cycle lists every walked point on the hull boundary, counterclockwise.
- If a point lies on both paths, the concave function (top - chord) is
  >= 0 and vanishes at an interior point, so it vanishes everywhere: the
  whole top path lies on the chord, and dropping the repeat is safe.
- Any subset of boundary points lies on the boundary of its own hull, in
  the inherited order.
- The table sum is exact on a boundary cycle that holds points which are
  no hull vertex.  For u on the open segment ab (x is distinct after the
  shear), top(a, u) + w_u + top(u, b) = top(a, b) and bot(a, u) + bot(u, b)
  = bot(a, b).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, repeat
from math import lcm
from operator import add, itemgetter, neg

from .geometry import scale_to_integers, shear_normalize
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


@dataclass
class SolverContext:
    """Sheared, integer-scaled, x-sorted view of a canonical 2D instance.

    ``xs``/``ys``/``ws`` hold every instance point in ascending-x order
    (the shear guarantees distinct x), ``orig`` maps sorted positions back
    to instance indices, and ``cand`` lists the sorted positions of the
    positive points.  DP indices below are ordinals into ``cand``.
    ``shear_k`` is the factor s that ``geometry.shear_normalize`` returns:
    1 exactly when no shear was applied, otherwise s >= 2.  ``slope_scale``
    is M = (x_max - x_min)^2 of the slope key.
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
    sorts and :func:`_chains` reads; ``solve_2d`` drops them once the chains
    are built, and equality compares only ``top`` and ``bot``.
    """

    top: list[list[int]]
    bot: list[list[int]]
    nkey: list[list[int]] | None = field(default=None, compare=False, repr=False)


@dataclass
class AngularLists:
    """Per-candidate clockwise orderings of the candidates to the right.

    ``right[j]`` holds the ordinals right of candidate j sorted clockwise
    around it, i.e. by decreasing slope of the outgoing direction (ties by
    ascending ordinal), and ``right_key[j]`` the sort keys -key(j, r) in
    list order, so each row ascends.  The top chain's reading list of j is
    ``right[j]``; the bottom chain's is ``right[j]`` reversed, the clockwise
    order of the reflection y -> -y (:func:`_chains`).
    """

    right: list[list[int]]
    right_key: list[list[int]]


def build_context(instance: Instance) -> SolverContext:
    if instance.dimension != 2:
        raise ValueError("solver2d requires a 2-dimensional instance")
    require_canonical(instance)
    n = len(instance.points)
    if n == 0:
        return SolverContext(instance, 1, 1, 0, [], [], [], [], [])
    scaled, shear = shear_normalize(scale_to_integers([wp.point for wp in instance.points]))
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
    """Clockwise orderings right of every candidate, O(n^2 log n) total.

    ``nkey[i][j - i - 1]`` = -key(i, j) for candidate ordinals i < j, as
    ``precompute_edge_weights`` leaves them in ``EdgeWeights.nkey``; the
    lists keep the same int objects.
    """
    right, right_key = [], []
    for j, rk in enumerate(nkey):
        hi = sorted(range(len(rk)), key=rk.__getitem__)
        right.append([j + 1 + o for o in hi])
        right_key.append(list(map(rk.__getitem__, hi)))
    return AngularLists(right, right_key)


def _mirrored(rows) -> list[list[int]]:
    """Key rows under y -> -y: read counterclockwise and negated, so ascending."""
    return [list(map(neg, reversed(row))) for row in rows]


def compute_first_compatible(orders, keys):
    """The first-compatible pointers of one chain, reader by reader.

    ``orders[i]`` is i's reading list read backwards and ``keys[i]`` the
    reading list's sort keys (ascending), as :func:`_chain_rows` takes them.
    Row i holds fc(i, c) for every c of ``orders[i]``, in that order: the
    first position of c's reading list that turns concavely after i, one
    ``bisect_left`` of c's key in i's list into c's keys.
    """
    return [
        list(map(bisect_left, map(keys.__getitem__, order), reversed(ks)))
        for order, ks in zip(orders, keys)
    ]


@dataclass
class _Chain:
    """One chain recurrence as per-column suffix maxima, maximised.

    The top chain stores C; the bottom chain stores -V, so both run the same
    max kernel and ``sign * value`` is the table entry.  Positions f of
    column j are positions in j's reading list (``right[j]`` for the top
    chain, ``right[j]`` reversed for the bottom one).  For slab k, column j < k
    holds ``sufmax[doff[j] + f]``, the best cell (j, c, k) over positions
    f..p of the list, p = p(j, k) the last position of k's tie group;
    column k holds ``tip[k]`` and columns right of k hold ``2 * none``.
    Cell (i, j, k) is never stored: it is base(i, j) + sufmax[doff[j] +
    fc(i, j)], and cell (i, k, k) is base(i, k) + tip[k].

    Row i runs over i's reading list in reverse (the order the sweep reads
    it): ``order[i][x]`` is the candidate c at position L - 1 - x, with L =
    m - 1 - i, ``bases[i][x]`` is base(i, c) and ``addrs[i][x]`` is doff[c] +
    fc(i, c).  ``start[i][k - i - 1]`` is L - 1 - p(i, k), the first row
    index slab k reads.  ``none`` is the infeasible sentinel.
    """

    order: list[list[int]]
    bases: list[list[int]]
    addrs: list[list[int]]
    start: list[list[int]]
    doff: list[int]
    tip: list[int]
    none: int
    sign: int


def _chain_rows(orders, keys, ordinal_keys, base, doff):
    """The rows ``order``, ``bases``, ``addrs`` and ``start`` of one :class:`_Chain`.

    ``orders[i]`` is i's reading list, clockwise in the chain's own frame,
    read backwards (the order the sweep reads it, from position p down to
    0); ``keys[i]`` holds the reading list's sort keys (ascending) and
    ``ordinal_keys[i][k - i - 1]`` the key of k.  fc(i, c) comes from
    :func:`compute_first_compatible`; p(i, k) is the last position of k's
    tie group.  ``base(i, cs)`` gives base(i, c) for the candidates cs.
    """
    bases, addrs, start = [], [], []
    fcs = compute_first_compatible(orders, keys)
    for i, (order, ks, ordinal, fc) in enumerate(zip(orders, keys, ordinal_keys, fcs)):
        back = range(len(order) - 1, -1, -1)  # a tie group keeps its last position
        bases.append(base(i, order))
        addrs.append(list(map(add, map(doff.__getitem__, order), fc)))
        start.append(list(map(dict(zip(ks, back)).__getitem__, ordinal)))
    return orders, bases, addrs, start


def _chains(ctx: SolverContext, ew: EdgeWeights, lists: AngularLists):
    """The top-chain (C) and bottom-chain (-V) recurrences, one builder twice.

    The top chain reads ``right`` with keys ``right_key`` and bases w_i +
    top(i, c).  The bottom chain is the top chain of the reflection y -> -y:
    it reads ``right`` reversed (counterclockwise) with the :func:`_mirrored`
    keys and bases -bot(i, c).  Needs ``ew.nkey`` for the tie groups.
    """
    wc = [ctx.ws[p] for p in ctx.cand]
    m = len(wc)
    none = -sum(map(abs, ctx.ws)) - 1
    # Column c has a slot for each fc(., c) in 0..m - 1 - c.
    doff = list(accumulate(range(m, 0, -1), initial=0))
    top, bot = ew.top, ew.bot
    # The bottom chain first: its mirrored key rows are freed before the top
    # chain's rows are built.  It reads right reversed, so it sweeps in right
    # order.
    lower = _chain_rows(
        lists.right, _mirrored(lists.right_key), (map(neg, row) for row in ew.nkey),
        lambda i, cs: list(map(neg, map(bot[i].__getitem__, cs))), doff,
    )
    upper = _chain_rows(
        [row[::-1] for row in lists.right], lists.right_key, ew.nkey,
        lambda i, cs: list(map(wc[i].__add__, map(top[i].__getitem__, cs))), doff,
    )
    return _Chain(*upper, doff, wc, none, 1), _Chain(*lower, doff, [0] * m, none, -1)


def _fill_slab(ch: _Chain, sufmax, k: int, best) -> None:
    """Fill columns k, k-1, ..., 0 of slab k; best[j] := best cell (j, c, k).

    Columns right of k must hold ``2 * none``.  Every base is at most
    sum |w|, so a read from them is below ``none`` and never wins.
    """
    bases, addrs, start, doff = ch.bases, ch.addrs, ch.start, ch.doff
    none = ch.none
    get = sufmax.__getitem__
    sufmax[doff[k]:doff[k + 1]] = repeat(ch.tip[k], doff[k + 1] - doff[k])
    for j in range(k - 1, -1, -1):
        s = start[j][k - j - 1]
        # Running maxima of the cells (j, c, k) over positions p, p-1, ..., 0
        # of j's reading list, so d[::-1] holds the suffix maxima.
        b = none
        d = [(b := v) if v > b else b for v in map(add, bases[j][s:], map(get, addrs[j][s:]))]
        best[j] = b
        if j:  # no reader ever reads column 0
            d.reverse()
            sufmax[doff[j]:doff[j] + len(d)] = d


def _empty_slab(ch: _Chain) -> list[int]:
    return [2 * ch.none] * ch.doff[-1]


def _walk(ctx: SolverContext, ch: _Chain, sufmax, i0: int, k: int):
    """Recover the best chain from i0 to k out of a filled slab k.

    Ties go to the smallest second vertex, then to the first candidate in
    each reading list, as the recurrence reads them.  Past p(j, k) a column
    holds stale maxima of earlier slabs, so only the feasible positions
    f..p are read: there c <= k is exactly a compatible turn to k.
    """

    def steps(j, f):
        # (cell (j, c, k), c, its address) for c <= k at positions f..p(j, k).
        order, bases, addrs = ch.order[j], ch.bases[j], ch.addrs[j]
        s = ch.start[j][k - j - 1]
        assert f <= len(order) - 1 - s, "walked into an infeasible cell"
        rows = range(len(order) - 1 - f, s - 1, -1)
        return [(bases[x] + sufmax[addrs[x]], order[x], addrs[x]) for x in rows if order[x] <= k]

    v, j, at = max(sorted(steps(i0, 0), key=itemgetter(1)), key=itemgetter(0))
    path = [i0, j]
    while j != k:
        v, j, nxt = max(steps(j, at - ch.doff[j]), key=itemgetter(0))
        assert sufmax[at] == v, "the sweep's suffix maximum is not the best step"
        path.append(j)
        at = nxt
    # Each step's key in the chain's frame; zip(a, b) is (x_a, x_b), (y_a, y_b).
    xy = [(ctx.xs[p], ctx.ys[p]) for p in map(ctx.cand.__getitem__, path)]
    keys = [ch.sign * _key_row(*zip(a, b), 0, ctx.slope_scale)[0] for a, b in zip(xy, xy[1:])]
    assert keys == sorted(keys, reverse=True), "chain turns the wrong way"
    return path


def _cycle_weight(ctx: SolverContext, ew: EdgeWeights, cycle) -> int:
    """Scaled weight of conv(T) from the tables, for a boundary cycle of T.

    ``cycle`` lists T's candidate ordinals, all on the boundary of conv(T),
    counterclockwise from the leftmost (the smallest ordinal); some may be
    no hull vertex.  With L/R its leftmost/rightmost points, D the cycle
    from L to R and U the rest, from R back to L, every instance point
    strictly between L and R in x on or below U is in some ``top`` edge sum,
    the points strictly below D are in the ``bot`` sums, and the points level
    with a point of U are that point alone (x is distinct).  So

        weight(conv T) * weight_scale
            = sum top[a][b] over edges of U + sum ws[u] over points of U
              - sum bot[a][b] over edges of D.

    A point on an open edge changes nothing (module docstring), so a
    collinear T gives top - bot + w_L + w_R whichever side holds its inner
    points; a single point gives its own weight and the empty cycle 0.
    """
    ws, cand = ctx.ws, ctx.cand
    if len(cycle) <= 1:
        return sum(ws[cand[c]] for c in cycle)
    # Ordinals ascend with x, so R is the largest.
    r = cycle.index(max(cycle))
    lower = cycle[: r + 1]
    upper = cycle[r:] + cycle[:1]
    top, bot = ew.top, ew.bot
    w = sum(ws[cand[c]] for c in upper)
    for b, a in zip(upper, upper[1:]):
        w += top[a][b]
    for a, b in zip(lower, lower[1:]):
        w -= bot[a][b]
    return w


def prune_with_tables(ctx: SolverContext, ew: EdgeWeights, cycle):
    """``model.prune_to_maximal`` on a boundary cycle, scored from the tables.

    ``cycle`` is the walked boundary cycle of the module docstring.  Same
    rules (``prune_by_weight``), so the same vertices go.  Returns the kept
    vertices as sorted instance indices, exactly as the model does, and
    their scaled hull weight.  A trial filters the cycle, rotates it to its
    smallest ordinal and sums the tables along it.
    """
    ordinal = {ctx.orig[ctx.cand[c]]: c for c in cycle}

    def weight_of(kept):
        keep = set(map(ordinal.__getitem__, kept))
        hull = list(filter(keep.__contains__, cycle))
        s = hull.index(min(hull)) if hull else 0
        return _cycle_weight(ctx, ew, hull[s:] + hull[:s])

    return prune_by_weight(ordinal, weight_of)


def solve_2d(instance: Instance, *, allow_empty: bool = True) -> Solution:
    """Exact planar optimum with a reconstructed, maximal vertex witness.

    Runs in O(n^3) time and O(n^2) memory: for each rightmost candidate k
    one slab of per-column suffix maxima is filled (right to left, one read
    per position <= p(j, k) of each column), and the best cell per (j, k)
    falls out of the column fill.  The winning slab is refilled once for
    reconstruction.
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
    upper, lower = _chains(ctx, ew, lists)
    ew.nkey = None  # frees the slope keys; the chains keep the rows they use
    del lists
    suf_c, suf_v = _empty_slab(upper), _empty_slab(lower)
    rm_c = [0] * m  # rm_c[i]: best C[i, j, k] over j for the current k
    rm_v = [0] * m  # rm_v[i]: best -V[i, j, k] over j

    # The best scaled weight, then the lexicographically smallest (i, k).
    # k only grows, so a later k wins a tie only with a smaller i.
    bw, bi, bk = ws[cand[0]], 0, 0
    for k in range(m):
        _fill_slab(upper, suf_c, k, rm_c)
        _fill_slab(lower, suf_v, k, rm_v)
        w, i = ws[cand[k]], k
        if k:
            row = list(map(add, rm_c[:k], rm_v[:k]))
            top = max(row)
            if top >= w:
                w, i = top, row.index(top)
        if w > bw or (w == bw and i < bi):
            bw, bi, bk = w, i, k

    weight = Fraction(bw, ctx.weight_scale)
    if allow_empty and weight <= 0:
        return empty_solution(2)

    if bi == bk:
        cycle = [bi]
    else:
        for ch, suf, rm in ((upper, suf_c, rm_c), (lower, suf_v, rm_v)):
            tail = ch.doff[bk + 1]
            suf[tail:] = repeat(2 * ch.none, len(suf) - tail)
            _fill_slab(ch, suf, bk, rm)
        assert rm_c[bi] + rm_v[bi] == bw
        # CCW from bi: the bottom path, then the top path back without its
        # ends or the points it shares with the bottom path.
        upper_path = _walk(ctx, upper, suf_c, bi, bk)
        lower_path = _walk(ctx, lower, suf_v, bi, bk)
        on_lower = set(lower_path)
        cycle = lower_path + [c for c in reversed(upper_path[1:-1]) if c not in on_lower]

    chosen, chosen_w = prune_with_tables(ctx, ew, cycle)
    if chosen_w != bw:
        raise RuntimeError("pruned witness does not keep the optimal table weight")
    sol = evaluate(instance, chosen)
    if sol.weight != weight:
        raise RuntimeError("reconstructed witness does not reproduce the optimum")
    return sol
