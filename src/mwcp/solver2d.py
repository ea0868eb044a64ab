"""Planar solver: cubic-time dynamic program over concave/convex vertex chains.

An optimal polygon whose vertices have pairwise distinct x splits at its
leftmost and rightmost vertices into a top chain that only turns clockwise
and a bottom chain that only turns counterclockwise.  Every weight is the
leftmost vertex's plus one edge-table entry per boundary edge (the identity
below), which lets the two chains be optimized independently per endpoint
pair.

Candidate vertices are the positive points only; other points contribute
through edge weights.  Internally all coordinates and weights are the plain
integers of the instance's ``integer_view``, and
``geometry.shear_normalize`` shears that view by x -> s*x + y when two
points share an x.  Its docstring proves that the shear keeps the x order,
breaks x ties by ascending y, leaves every x distinct and keeps every
orientation sign.  The hot loops therefore run on Python ints and stay
exact, and every answer equals the one for the original instance.

Infeasible DP cells are never stored, and the one sentinel is an exact
integer, never a float or None: none = -(sum |w|) - 1, with w the scaled
weights.  The sweep stores -V, so both chains maximise.  A feasible C or -V
value sums the weights of distinct points, so it lies in [-sum |w|, sum |w|]
and beats none; the suffix maxima below say how none enters a max and why it
never wins one.

Three facts make the pipeline run on plain int compares.

Slope key.  After the shear every x is distinct.  With X = x_max - x_min
and M = X^2 (but see the cap below) let

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
sorted by decreasing key, ties by ascending x (by decreasing slope, i.e.
clockwise).

The key's scale is capped: ``build_context`` sets M = min(X^2, 2^64),
since a 548-bit M made ``_key_row`` the largest cost of a big-integer
solve.  Under the cap floor(M s) still never reverses two slopes (s < s'
gives floor(M s) <= floor(M s')) but may merge them, so the pair pass
checks that each candidate's key is alone in its own row.  For a < b with
k = key(a, b) the pass reads a's row, where b itself has key k, and b's
row at k.  If b is the only point of a's row with key k, every comparison
against k in a's row is strict, and since floor(M s) is monotone, key(a,
q) < k gives a slope below that of (a, b) and key(a, q) > k one above it.
Then no point of b's row has key k either: for q right of b the slope of
(a, q) is a weighted mean of those of (a, b) and (b, q), so key(b, q) = k
would put key(a, q) in the same floor cell, k, and q, a point of a's row,
would tie with b.  So when every candidate b is alone in a's row at
key(a, b), P and C below, and with them the sums, the counts fc and p,
and the row order of the candidates, are exactly those of the uncapped
key.  A pair of another row may share k: the pass reads only rows a and b
at (a, b), so it changes nothing.  Otherwise the pass sets M = X^2 and
runs once more.  An exact tie always merges under the cap, so an input
with a point q right of a candidate a on the line through a and another
candidate takes that second pass, and the proofs below hold as written.

Edge weights from one pass in slope order.  ``top(a, b)`` / ``bot(a, b)``
sum the weights on or below / strictly below edge (a, b) over the
half-open slab x_a < x <= x_b.  Let P_a(t) / Q_a(t) be the weight of the
points right of a with key(a, .) < t / <= t.  For candidates a < b and k =
key(a, b),

    bot(a, b) = P_a(k) - P_b(k),    top(a, b) = Q_a(k) - Q_b(k).

Of the points q that P_a(k) counts, those with x_q < x_b are the points
strictly below ab, and b itself has key k, as b is never strictly below its
own edge.  For x_q > x_b the slope of (a, q) is a weighted mean, with
positive weights, of the slopes of (a, b) and (b, q), so key(a, q) < k
exactly when key(b, q) < k: those sum to P_b(k).  With <= the same split
puts b itself in Q_a(k), where top counts it, and the rest gives Q_b(k).

So a pair needs only the weight that each of its two rows holds below and
at its key.  The pass lists every pair (a, q) of a candidate a and a point
q right of it, row a after row a - 1 and each row right to left, and
sorts them once, stably, by key(a, q): ties go by ascending a, then by
descending x.  It walks them in that order and keeps two running values
per candidate a, P[a] and C[a], the weight and the number of candidates of
a's pairs walked so far.  The invariant: before the first pair of key k,
P[a] = P_a(k) and C[a] counts a's candidates with key below k, for every a.
At a candidate pair (a, b) the walk reads P[a], C[a], P[b] and C[b], then
adds w_b and 1 to a's values.

- If b is alone in a's row at k, those reads are the values before k's
  key group: a's row has no other pair of key k, and b's row has none at
  all (points of it with key k would lie on the ray from a through b,
  beyond b, in a's row; under the cap see above).  After the group, a's
  row has gained w_b and b, and b's row nothing.  So bot(a, b) = P[a] -
  P[b], top(a, b) = bot(a, b) + w_b, a's counts below / at most k are C[a]
  and C[a] + 1, and b's are both C[b].
- Otherwise b is in a tie run, the r > 1 pairs of a's row with key k,
  which holds a candidate only under the exact key (under the cap the pass
  falls back).  Its points are then the points of a's row on one ray from
  a, walked in descending x, q_1, ..., q_r, with total weight W and Cn
  candidates.  For b = q_i let s and d be the weight and the candidates of
  q_1, ..., q_{i-1}: exactly the points of b's row with key k, which the
  sort puts after the run.  So the walk read P[a] = P_a(k) + s, C[a] =
  C_a(< k) + d, P[b] = P_b(k) and C[b] = C_b(< k), and after the group
  Q_a(k) = P_a(k) + W, C_a(<= k) = C_a(< k) + Cn, Q_b(k) = P_b(k) + s and
  C_b(<= k) = C_b(< k) + d.  The pass corrects each run's candidate pairs
  from those four readings after the walk, in O(r) per run.

The keys cost O(m n) big-integer divisions and the one sort O(N log N) for
the N <= m n pairs; the walk is O(1) per pair.  The flat pair lists are
dropped before the chains are built.

The same counts rank the candidates for the chains.  The walk meets a's
candidates by ascending key, ties by descending x, so C[a] before b's add
is b's place in a's counterclockwise list, the bottom chain's reading
list.  The pass writes b there as its offset b - a - 1, the index of every
pair table, and every reading list keeps that offset, so no list is
converted.  ``right[a]``, the top chain's, is that list reversed, the one
list reversal of a solve; L_a = |right[a]| = m - 1 - a.  Of a's candidates
C_a(< k) have key < k and L_a - C_a(<= k) key > k, so b's tie group ends
at p(a, b) = L_a - C_a(< k) - 1 of ``right[a]`` and at C_a(<= k) - 1 of
its reverse.  In b's row they give fc(a, b) (below), the candidates before
the first compatible turn: the L_b - C_b(<= k) with key(b, .) > k for the
top chain, the C_b(< k) with key(b, .) < k for the bottom chain.  The
sweep reads fc(a, b) only at its address in column b's slots, so
``compute_first_compatible`` returns the addresses themselves, indexed by
offset like the pair tables.

One identity weighs every polygon.  Take a counterclockwise boundary
cycle with leftmost point L (its smallest ordinal, as x is distinct), and
let e(a -> b) be -bot(a, b) when a < b, a lower edge, and top(b, a) when
a > b, an upper edge.  Then

    weight * weight_scale = w_L + sum of e(a -> b) over the cycle's edges.

The lower edges tile (x_L, x_R] in x, R the rightmost point, and so do the
upper ones.  Over each slab the upper edge counts the points on or below
the boundary and the lower edge takes back those strictly below it, which
leaves the points of the polygon with x in (x_L, x_R]; L is the one point
with x = x_L.  So the upper edges count each upper vertex except L once, as
a right end, and nothing on a lower edge is counted.  The top chain below
sums top over its edges and the bottom chain -bot over its edges: e along
the cycle's two paths between i and k.  So a pair (i, k) weighs w_i plus
its best top chain plus its best bottom chain.

Suffix maxima.  A concave x-monotone chain lies on or above its chord, so
C[i, j, k], the best sum of top over a concave chain i -> j -> ... -> k,
exists exactly when (i, j, k) is concave: then i -> j -> k itself is one.
Let p = p(j, k) be the last position of k's tie group in ``right[j]``,
which is sorted by decreasing key(j, .).  The c <= k at positions <= p are
exactly the c <= k with key(j, c) >= key(j, k), so by the weighted mean
they are exactly the c that make (j, c, k) concave.  The first-compatible
pointer fc(i, j), the first position of ``right[j]`` that turns concavely
after i, always starts a tie group, so (i, j, k) is concave exactly when
fc(i, j) <= p, and then k itself lies between fc(i, j) and p.  So the sweep
stores, for slab k, only the suffix maxima of each column j < k: sufmax(j,
f), the best cell (j, c, k) over positions f..p, for f = 0..p.  Cell (i, j,
k) is never stored: it is base(i, j) + sufmax(j, fc(i, j)), with base(i, j)
= top(i, j), and cell (i, k, k) is base(i, k): column k holds 0 in every
slot.  Column j's maxima come from one pass over the cells (j, c, k) for c
at positions p, p-1, ..., 0, each read as base(j, c) + sufmax(c, fc(j,
c)).  Two facts make every such read exact.

- c <= k at a position <= p(j, k) implies fc(j, c) <= p(c, k).  For c = k
  there is nothing to show: column k holds 0 in every slot.  For c < k,
  key(j, c) >= key(j, k), and key(j, k) is a weighted mean of key(j, c) and
  key(c, k) (the key is order-isomorphic to the slope), so key(c, k) <=
  key(j, k) <= key(j, c).  So (j, c, k) is concave, k is compatible after j
  at c, and fc(j, c) is at most the first position of k's tie group in
  ``right[c]``, which is <= p(c, k).  A read of a column left of k therefore
  never reaches the positions past p(c, k), which keep stale maxima of
  other slabs.
- Columns right of k hold none (the sweep order below keeps them so), so
  a read from one is base(j, c) + none.  Let P and N be the totals of the
  positive and |negative| weights, so none = -P - N - 1.  On the top chain
  base(j, c) = top(j, c) sums distinct points of the slab (x_j, x_c], which
  holds c and leaves out j, so base <= P - w_j and the read is <= -N - w_j
  - 1.  A feasible cell of column j sums top over a chain from j to k,
  which counts w_k and distinct points, so it is > -N and so > -N - w_j.
  On the bottom chain base(j, c) = -bot(j, c) <= N, so the read is <= -P -
  1, while every feasible -V leaves out at least w_k, so -V > -P.  Such a
  read never wins a max: k itself, feasible, sits at a position <= p.

Each column has a slot for every fc in 0..|right[c]|, since fc(j, c) can be
past the last position of ``right[c]``.  The rows of the sweep hold each
reading list in reading order, and p(j, k) sits in a table, so slab k fills
column j in place with one index loop over positions p, p-1, ..., 0: each
step reads one cell, updates the running max and stores it at slot f of
column j.  Column 0 is written too, though no reader reads it: every fc
address names a column c > i >= 0.  The suffix maximum at position 0 is
the best cell for the pair (j, k).  The bottom chain is the top chain of
the reflection y -> -y, which negates every key and turns convex chains
into concave ones: one builder makes its rows from the counterclockwise
lists, with the bottom chain's fc and p and -bot bases, and the same
kernel maximises -V, whose max is minus the min of V.

Sweep order and cut.  The slabs are independent.  Slab k fills columns
k - 1, ..., 0, and column j reads three kinds of column: column k, which
holds 0; columns c with j < c < k, which this fill has just written
at every position it reads; and columns right of k, which must hold
none.  So the slabs may run in any order on one array per chain, and
``solve_2d`` runs them right to left, k = m - 1 down to 0.

- Reset.  Of the columns right of k, slab k + 1 wrote only column k + 1
  (with 0); so the fill of slab k first writes none over column k + 1,
  at O(m) per slab.  A column c > k + 1 was reset by the fill of slab
  c - 1, and the slabs filled since write only columns left of c.  So
  every column right of k holds none while slab k runs.  When the sweep
  stops, the chain still holds the last slab it filled, and every column
  right of that slab holds none: a winning slab right of it is refilled
  with no further reset, and the last slab itself is read as it stands.
  The arrays start all none, so slabs filled in any other order, such as
  ascending k, also find none right of k.
- Cut.  Let P(k) be the weight of the candidates 0..k.  In the sheared
  frame a polygon whose rightmost vertex is k lies in x <= x_k, so the
  positive points it holds are among candidates 0..k, and its weight, and
  each value slab k yields, is at most P(k).  Every candidate weighs > 0,
  so P rises with k.  Once the best weight bw found so far exceeds P(k),
  no slab k' <= k reaches bw and the sweep stops.  The test is strict: a
  slab with P(k) = bw may still hold a polygon of weight bw with a smaller
  leftmost vertex, which the tie rule prefers.
- Ties.  The answer is the largest weight, then the smallest leftmost
  vertex i, then the smallest rightmost vertex k.  Within a slab the
  smallest i of the best row wins, the singleton (k, k) last.  Since k
  falls, a slab's best replaces an equal incumbent exactly when its i is
  at most the incumbent's: an equal i comes with a smaller k.

Witness finishing reuses the same edge tables.  The walk gives the top
path i0 -> ... -> k and the bottom path i0 -> ... -> k of the optimum, and
the prune runs on one cycle: the bottom path, then the top path back
without its ends or any point already on the bottom path.  A trial's score
is the identity's sum (``_cycle_weight``) along that cycle filtered to the
kept points; no hull is built.  This is exact on every input:

- The top path is a weakly concave x-monotone chain, so it lies on or
  above the chord i0 k; the bottom path is weakly convex, so it lies on or
  below it.  Their union is therefore in weakly convex position, and the
  cycle lists every walked point on the hull boundary, counterclockwise.
- If a point lies on both paths, the concave function (top - chord) is
  >= 0 and vanishes at an interior point, so it vanishes everywhere: the
  whole top path lies on the chord, and dropping the repeat is safe.
- Any subset of boundary points lies on the boundary of its own hull, in
  the inherited order.
- The identity holds on a boundary cycle that holds points which are no
  hull vertex.  For u on the open segment ab (x is distinct after the
  shear), top(a, u) + top(u, b) = top(a, b) and bot(a, u) + bot(u, b) =
  bot(a, b).

The identity takes the cycle in any rotation.  The sum is built in full
once per drop and read in O(1) per trial.  A drop of a point c between its
neighbours p and n on the cycle changes only c's two edges, into the one
edge p -> n, so the trial scores the sum + e(p -> n) - e(p -> c) - e(c ->
n).  When c is the leftmost point the trial also adds w_{min(p, n)} - w_c:
x rises from L along the lower path and falls back to L along the upper
one, so the next leftmost point is one of c's two neighbours.  On a cycle
of two points p = n, and e(p -> p) = 0; a cycle of one point drops to the
empty set, which weighs 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, repeat
from operator import add, itemgetter, neg, sub

from .geometry import shear_normalize
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


# The slope key's largest scale before the exact X^2 (module docstring).
KEY_CAP = 1 << 64


@dataclass
class SolverContext:
    """Sheared, x-sorted ``Instance.integer_view`` of a canonical 2D instance.

    ``xs``/``ys``/``ws`` hold every instance point in ascending-x order
    (the shear guarantees distinct x), ``orig`` maps sorted positions back
    to instance indices, and ``cand`` lists the sorted positions of the
    positive points.  DP indices below are ordinals into ``cand``.
    ``shear_k`` is the factor s that ``geometry.shear_normalize`` returns:
    1 exactly when no shear was applied, otherwise s >= 2.  ``slope_scale``
    is M of the slope key: min(X^2, ``KEY_CAP``) with X = x_max - x_min, and
    X^2 once :func:`precompute_edge_weights` has found a tie group under the
    cap (module docstring).
    """

    instance: Instance
    shear_k: int
    slope_scale: int
    xs: list[int]
    ys: list[int]
    ws: list[int]
    orig: list[int]
    cand: list[int]


@dataclass
class Ranks:
    """The positions and counts of the pair pass, for the lists and the chains.

    ``ccw[a]`` lists the candidates b right of a, as their offsets b - a - 1
    in a's pair rows, by ascending key(a, b), ties by descending x:
    counterclockwise around a.  It is the bottom chain's reading list of a,
    and reversed the top chain's (:func:`build_angular_lists`); every
    reading list holds such offsets.  For candidate ordinals a < b with k =
    key(a, b), at [a][b - a - 1]: ``first`` / ``last`` are the positions in
    ``ccw[a]`` of the first / last candidate c with key(a, c) = k, so
    ``first`` counts a's candidates with key below k and ``last + 1`` those
    with key at most k; ``lo_b`` / ``hi_b`` count the candidates c right of
    b with key(b, c) < k / <= k.
    """

    first: list[list[int]]
    last: list[list[int]]
    lo_b: list[list[int]]
    hi_b: list[list[int]]
    ccw: list[list[int]]


@dataclass
class EdgeWeights:
    """``top[a][b - a - 1]`` / ``bot[a][b - a - 1]``: top(a, b) / bot(a, b).

    For candidate ordinals a < b, the weight on or below / strictly below
    edge (a, b) over the half-open slab x_a < x <= x_b, so top counts b
    itself and bot never does.  ``top - bot`` is exactly the weight on the
    segment without a, which is what makes boundary points of degenerate
    inputs count once overall (module docstring: one identity).  The
    offset b - a - 1 indexes every 2D row: these tables, ``ranks``, the
    reading lists and the chains' address rows.
    ``ranks`` holds the positions and counts the same pass read, which
    :func:`build_angular_lists`, :func:`compute_first_compatible` and
    :func:`_chains` take; ``solve_2d`` drops it once the chains are built,
    and equality compares only ``top`` and ``bot``.
    """

    top: list[list[int]]
    bot: list[list[int]]
    ranks: Ranks | None = field(default=None, compare=False, repr=False)


def build_context(instance: Instance) -> SolverContext:
    if instance.dimension != 2:
        raise ValueError("solve_2d requires a 2-dimensional instance")
    require_canonical(instance)
    ints, iw, _ = instance.integer_view
    n = len(ints)
    scaled, shear = shear_normalize(ints)
    order = sorted(range(n), key=lambda i: scaled[i][0])
    xs = [scaled[i][0] for i in order]
    ys = [scaled[i][1] for i in order]
    ws = [iw[i] for i in order]
    cand = [p for p in range(n) if ws[p] > 0]
    span = xs[-1] - xs[0] if n else 0
    return SolverContext(instance, shear, min(span * span, KEY_CAP), xs, ys, ws, order, cand)


def _key_row(xs, ys, a: int, scale: int) -> list[int]:
    """[key(a, b) for b = a + 1, ..., len(xs) - 1]; see the module docstring.

    The one place the slope key is computed.
    """
    xa, ya = xs[a], ys[a]
    return [(y - ya) * scale // (x - xa) for x, y in zip(xs[a + 1:], ys[a + 1:])]


def precompute_edge_weights(ctx: SolverContext) -> EdgeWeights:
    """Edge weights for all candidate pairs from one pass in slope order.

    The pass, its invariant and its cost are in the module docstring.  A
    pass under the capped key that finds a candidate's key shared in its
    own row stops, and the pass runs again with ``ctx.slope_scale`` set to
    the exact X^2.
    """
    span = ctx.xs[-1] - ctx.xs[0] if ctx.xs else 0
    ew = _pair_pass(ctx, ctx.slope_scale < span * span)
    if ew is None:
        ctx.slope_scale = span * span
        ew = _pair_pass(ctx, False)
    return ew


def _pair_pass(ctx: SolverContext, capped: bool) -> EdgeWeights | None:
    """:func:`precompute_edge_weights` at ``ctx.slope_scale``, or None when
    that scale is ``capped`` and some key(a, b) is not alone in a's row.

    Sorts every pair (a, q) of a candidate a and a point q right of it
    once by key(a, q) and walks them with P[a] and C[a], then corrects the
    tie runs of candidate pairs (module docstring: edge weights from one
    pass in slope order).  Under the cap a tie run of a candidate stops the
    pass before the sort.
    """
    xs, ys, ws, cand, scale = ctx.xs, ctx.ys, ctx.ws, ctx.cand, ctx.slope_scale
    n, m = len(xs), len(cand)
    ordinal = [0] * n  # a candidate's ordinal, 0 for other points (ordinal 0 is in no row)
    for c, p in enumerate(cand):
        ordinal[p] = c
    # Row a lists the points right of a from right to left, so the stable
    # sort breaks ties by ascending row, then by descending x.
    keys, rows, wts, ords, runs = [], [], [], [], []
    for a, p in enumerate(cand):
        row = _key_row(xs, ys, p, scale)
        row.reverse()
        if len(set(row)) < len(row):
            groups = {}
            for q, k in zip(range(n - 1, p, -1), row):
                groups.setdefault(k, []).append(q)
            for run in groups.values():
                if len(run) > 1 and any(map(ordinal.__getitem__, run)):
                    if capped:
                        return None
                    runs.append((a, run))
        keys += row
        rows += repeat(a, len(row))
        wts += ws[:p:-1]
        ords += ordinal[:p:-1]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    del keys

    bot, first, lo_b, ccw = ([[0] * (m - 1 - a) for a in range(m)] for _ in range(4))
    P, C = [0] * m, [0] * m
    for t in order:
        a = rows[t]
        pa = P[a]
        P[a] = pa + wts[t]
        b = ords[t]
        if b:
            x = b - a - 1
            bot[a][x] = pa - P[b]
            first[a][x] = ca = C[a]
            lo_b[a][x] = C[b]
            ccw[a][ca] = x
            C[a] = ca + 1
    del order, rows, wts, ords
    wc = list(map(ws.__getitem__, cand))
    top = [list(map(add, row, wc[a + 1:])) for a, row in enumerate(bot)]
    last = [row[:] for row in first]
    hi_b = [row[:] for row in lo_b]
    for a, run in runs:
        # The run's points in descending x; s and d are the weight and the
        # candidates of those before b (module docstring).
        total = sum(map(ws.__getitem__, run))
        count = sum(1 for q in run if ordinal[q])
        s = d = 0
        for q in run:
            b = ordinal[q]
            if b:
                x = b - a - 1
                bot[a][x] -= s
                top[a][x] = bot[a][x] + total - s
                first[a][x] -= d
                last[a][x] = first[a][x] + count - 1
                hi_b[a][x] = lo_b[a][x] + d
                d += 1
            s += ws[q]
    return EdgeWeights(top, bot, Ranks(first, last, lo_b, hi_b, ccw))


def build_angular_lists(ctx: SolverContext, ew: EdgeWeights) -> list[list[int]]:
    """The top chain's reading lists: row a holds the candidates b right of
    a, as offsets b - a - 1, clockwise around a (by decreasing key(a, b),
    ties by ascending x).  Each is a counterclockwise row of the pair pass,
    ``ranks.ccw``, reversed: the one list reversal of a solve."""
    return [row[::-1] for row in ew.ranks.ccw]


def compute_first_compatible(ranks: Ranks, doff: list[int], top: bool):
    """One chain's first-compatible pointers as sweep addresses: doff[c] +
    fc(i, c) at [i][c - i - 1].

    From the counts of the pair pass in c's row at k = key(i, c): fc is the
    L_c - ``hi_b`` candidates with key(c, .) > k on the top chain, and
    column c has L_c + 1 slots, so the address is doff[c + 1] - 1 -
    ``hi_b``; on the bottom chain fc is the ``lo_b`` candidates with key(c,
    .) < k, at doff[c] + ``lo_b`` (module docstring).
    """
    if top:
        ends = [d - 1 for d in doff]
        return [list(map(sub, ends[i + 2:], row)) for i, row in enumerate(ranks.hi_b)]
    return [list(map(add, doff[i + 1:], row)) for i, row in enumerate(ranks.lo_b)]


@dataclass
class _Chain:
    """One chain recurrence and its sweep state: per-column suffix maxima.

    The top chain stores C; the bottom chain stores -V, so both run the same
    max kernel and ``sign * value`` is the table entry.  Positions f of
    column j are positions in j's reading list (``right[j]`` for the top
    chain, ``ranks.ccw[j]``, its reverse, for the bottom one).  Once slab k
    is filled, column j < k holds ``sufmax[doff[j] + f]``, the best cell (j,
    c, k) over positions f..p of the list, p = p(j, k) = ``p[j][k - j - 1]``
    the last position of k's tie group; column k holds 0 and columns right
    of k hold ``none``, the infeasible sentinel; and ``best[j]`` is the best
    cell (j, c, k) over all c.  Cell (i, j, k) is never stored: it is
    base(i, j) + sufmax[doff[j] + fc(i, j)], and cell (i, k, k) is base(i,
    k).  Every cell leaves out w_i, which ``solve_2d`` adds once per pair
    (module docstring: one identity).

    Row i runs over i's reading list in reading order: ``order[i][f]`` is
    the offset c - i - 1 of the candidate c at position f, as in the pair
    tables, ``bases[i][f]`` is base(i, c) and ``addrs[i][f]`` is doff[c] +
    fc(i, c).
    """

    order: list[list[int]]
    bases: list[list[int]]
    addrs: list[list[int]]
    p: list[list[int]]
    doff: list[int]
    none: int
    sign: int
    sufmax: list[int]
    best: list[int]


def _chains(ctx: SolverContext, ew: EdgeWeights, right: list[list[int]]):
    """The top-chain (C) and bottom-chain (-V) recurrences, one builder twice.

    The top chain reads ``right``, from :func:`build_angular_lists`, with
    bases top(i, c).  The bottom chain is the top chain of the reflection y
    -> -y: it reads the pass's counterclockwise lists ``ranks.ccw`` with
    bases -bot(i, c).  Needs ``ew.ranks``.  The bottom chain is built first,
    so one chain's pointers are live at a time.  p(i, k) is ``ranks.last``
    on the bottom chain and L_i - 1 - ``ranks.first`` on the top chain
    (module docstring).
    """
    m = len(ctx.cand)
    none = -sum(map(abs, ctx.ws)) - 1
    # Column c has a slot for each fc(., c) in 0..m - 1 - c.
    doff = list(accumulate(range(m, 0, -1), initial=0))
    ranks = ew.ranks

    def chain(order, table, sign, p):
        at = compute_first_compatible(ranks, doff, sign > 0)
        bases = [list(map(row.__getitem__, xs)) for row, xs in zip(table, order)]
        addrs = [list(map(row.__getitem__, xs)) for row, xs in zip(at, order)]
        return _Chain(order, bases, addrs, p, doff, none, sign, [none] * doff[-1], [0] * m)

    lower = chain(ranks.ccw, [list(map(neg, row)) for row in ew.bot], -1, ranks.last)
    p = [list(map(sub, repeat(m - 2 - a), row)) for a, row in enumerate(ranks.first)]
    return chain(right, ew.top, 1, p), lower


def _fill_slab(ch: _Chain, k: int) -> None:
    """Fill slab k: columns k, k-1, ..., 0 of ``ch.sufmax`` and ``ch.best[:k]``.

    First writes ``none`` over column k + 1, which a fill of slab k + 1 left
    holding 0.  The columns right of k + 1 must hold ``none`` already; a
    read from any column right of k is then below every feasible cell
    (module docstring) and never wins.  Column j takes the cells (j, c, k)
    at positions p(j, k) down to 0 of j's reading list and stores each
    running maximum in place, at its own position.  Column 0 is written
    too, though no reader reads it.
    """
    bases, addrs, p, doff = ch.bases, ch.addrs, ch.p, ch.doff
    sufmax, best, none = ch.sufmax, ch.best, ch.none
    n = len(ch.order) - 1 - k  # columns k and k + 1 have n + 1 and n slots
    sufmax[doff[k]:doff[k] + 2 * n + 1] = [0] * (n + 1) + [none] * n
    for j in range(k - 1, -1, -1):
        bj, aj, o = bases[j], addrs[j], doff[j]
        b = none
        for f in range(p[j][k - j - 1], -1, -1):
            v = bj[f] + sufmax[aj[f]]
            if v > b:
                b = v
            sufmax[o + f] = b
        best[j] = b


def _walk(ctx: SolverContext, ch: _Chain, i0: int, k: int):
    """Recover the best chain from i0 to k out of slab k, which ``ch`` holds.

    Ties go to the smallest second vertex, then to the first candidate in
    each reading list, as the recurrence reads them.  Past p(j, k) a column
    holds stale maxima of other slabs, so only the feasible positions
    f..p are read, straight from the rows, which keep reading order: there
    c <= k is exactly a compatible turn to k.
    """

    def steps(j, f):
        # (cell (j, c, k), c, its address) at positions f..p(j, k) for c <=
        # k, the offsets c - j - 1 up to k's own.
        order, bases, addrs, sufmax = ch.order[j], ch.bases[j], ch.addrs[j], ch.sufmax
        last = k - j - 1
        p = ch.p[j][last]
        assert f <= p, "walked into an infeasible cell"
        return [
            (bases[x] + sufmax[addrs[x]], j + 1 + order[x], addrs[x])
            for x in range(f, p + 1) if order[x] <= last
        ]

    v, j, at = max(sorted(steps(i0, 0), key=itemgetter(1)), key=itemgetter(0))
    path = [i0, j]
    while j != k:
        v, j, nxt = max(steps(j, at - ch.doff[j]), key=itemgetter(0))
        assert ch.sufmax[at] == v, "the sweep's suffix maximum is not the best step"
        path.append(j)
        at = nxt
    # Each step's key in the chain's frame; zip(a, b) is (x_a, x_b), (y_a, y_b).
    xy = [(ctx.xs[p], ctx.ys[p]) for p in map(ctx.cand.__getitem__, path)]
    keys = [ch.sign * _key_row(*zip(a, b), 0, ctx.slope_scale)[0] for a, b in zip(xy, xy[1:])]
    assert keys == sorted(keys, reverse=True), "chain turns the wrong way"
    return path


def _edge(ew: EdgeWeights, a: int, b: int) -> int:
    """e(a -> b) of a boundary cycle: -bot(a, b) on a lower edge (a < b),
    top(b, a) on an upper edge (a > b) and 0 when a = b (module docstring:
    one identity)."""
    if a < b:
        return -ew.bot[a][b - a - 1]
    if a > b:
        return ew.top[b][a - b - 1]
    return 0


def _cycle_weight(ctx: SolverContext, ew: EdgeWeights, cycle) -> int:
    """Weight of conv(T) times the integer view's weight_scale, from the tables.

    ``cycle`` lists T's candidate ordinals counterclockwise, in any
    rotation, all on the boundary of conv(T); some may be no hull vertex.
    The weight is w_L, L the leftmost point (the smallest ordinal), plus
    e(a -> b) over the cycle's edges (module docstring: one identity).  A
    collinear T rises from L to its rightmost point R and falls back, and
    gives w_L + top(L, R) - bot(L, R) whichever side holds its inner points;
    a single point gives its own weight and the empty cycle 0.
    """
    if not cycle:
        return 0
    edges = map(_edge, repeat(ew), cycle, cycle[1:] + cycle[:1])
    return ctx.ws[ctx.cand[min(cycle)]] + sum(edges)


def prune_with_tables(ctx: SolverContext, ew: EdgeWeights, cycle):
    """``model.prune_to_maximal`` on a boundary cycle, scored from the tables.

    ``cycle`` is the walked boundary cycle of the module docstring.  Same
    rules (``prune_by_weight``), so the same vertices go.  Returns the kept
    vertices as sorted instance indices, exactly as the model does, and
    their scaled hull weight.

    ``weigh`` builds the kept points' cycle and its ``_cycle_weight`` once
    per kept set, as ``prune_by_weight`` calls it.  A trial drop of a point
    c between its cycle neighbours p and n scores that sum + e(p -> n) -
    e(p -> c) - e(c -> n), plus w_{min(p, n)} - w_c when c is the leftmost
    point; the last point of a cycle drops to the empty set, which weighs 0
    (module docstring: witness finishing).
    """
    ws, cand = ctx.ws, ctx.cand
    ordinal = {ctx.orig[cand[c]]: c for c in cycle}

    def weigh(kept):
        keep = set(map(ordinal.__getitem__, kept))
        hull = list(filter(keep.__contains__, cycle))
        at = {c: i for i, c in enumerate(hull)}
        left, w = min(hull, default=None), _cycle_weight(ctx, ew, hull)

        def trial(dropped):
            if len(hull) == 1:
                return 0
            c = ordinal[dropped]
            i = at[c]
            p, n = hull[i - 1], hull[(i + 1) % len(hull)]
            t = w + _edge(ew, p, n) - _edge(ew, p, c) - _edge(ew, c, n)
            if c == left:
                t += ws[cand[min(p, n)]] - ws[cand[c]]
            return t

        return w, trial

    return prune_by_weight(ordinal, weigh)


def solve_2d(instance: Instance, *, allow_empty: bool = True) -> Solution:
    """Exact planar optimum with a reconstructed, maximal vertex witness.

    Runs in O(n^3) time and O(n^2) memory: for each rightmost candidate k,
    from k = m - 1 down, one slab of per-column suffix maxima is filled
    (columns right to left, one read per position <= p(j, k) of each
    column), and the best cell per (j, k) falls out of the column fill.  The
    sweep stops at the first k whose candidates 0..k weigh less than the
    best polygon found.  The winning slab is refilled for reconstruction
    unless it is the last slab filled (module docstring: sweep order and
    cut).
    """
    ctx = build_context(instance)  # rejects other dimensions and non-canonical input
    m = len(ctx.cand)
    if m == 0:
        if allow_empty:
            return empty_solution(2)
        return best_singleton(instance)
    wc = [ctx.ws[p] for p in ctx.cand]
    ew = precompute_edge_weights(ctx)
    upper, lower = _chains(ctx, ew, build_angular_lists(ctx, ew))
    ew.ranks = None  # the chains keep the rows they use

    # reach[k] = P(k), the weight of the candidates 0..k: no polygon whose
    # rightmost vertex is k or left of it weighs more (module docstring).
    reach = list(accumulate(wc))
    # The best scaled weight, then the lexicographically smallest (i, k).
    # k only falls, so a later k wins a tie unless its i is larger.  Every
    # candidate weighs > 0, so slab m - 1 replaces the start value.
    bw, bi, bk = 0, m, m
    for k in range(m - 1, -1, -1):
        if reach[k] < bw:
            break
        _fill_slab(upper, k)
        _fill_slab(lower, k)
        last = k
        # w_i plus the best cells per i < k, then the singleton (k, k): the
        # first maximum has the smallest i.
        row = [*map(add, map(add, upper.best[:k], lower.best), wc), wc[k]]
        w = max(row)
        i = row.index(w)
        if w > bw or (w == bw and i <= bi):
            bw, bi, bk = w, i, k

    weight = Fraction(bw, instance.integer_view[2])
    if allow_empty and weight <= 0:
        return empty_solution(2)

    if bi == bk:
        cycle = [bi]
    else:
        if bk != last:
            _fill_slab(upper, bk)
            _fill_slab(lower, bk)
        assert upper.best[bi] + lower.best[bi] + wc[bi] == bw
        # CCW from bi: the bottom path, then the top path back without its
        # ends or the points it shares with the bottom path.
        upper_path = _walk(ctx, upper, bi, bk)
        lower_path = _walk(ctx, lower, bi, bk)
        on_lower = set(lower_path)
        cycle = lower_path + [c for c in reversed(upper_path[1:-1]) if c not in on_lower]

    chosen, chosen_w = prune_with_tables(ctx, ew, cycle)
    if chosen_w != bw:
        raise RuntimeError("pruned witness does not keep the optimal table weight")
    sol = evaluate(instance, chosen)
    if sol.weight != weight:
        raise RuntimeError("reconstructed witness does not reproduce the optimum")
    return sol
