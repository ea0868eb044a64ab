import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from mwcp import solver2d
from mwcp.cli import _loglog_slope
from mwcp.generators import gen_ngon_family, gen_uniform
from mwcp.geometry import scale_to_integers
from mwcp.model import (
    Instance,
    WeightedPoint,
    evaluate,
    make_instance,
    prune_to_maximal,
)
from mwcp.oracle import solve_bruteforce
from mwcp.solver2d import (
    KEY_CAP,
    _chains,
    _cycle_weight,
    _key_row,
    _pair_pass,
    build_angular_lists,
    build_context,
    compute_first_compatible,
    precompute_edge_weights,
    prune_with_tables,
    solve_2d,
)
from support import (
    _tables,
    ascending_sweep_best,
    assert_valid_witness,
    best_weight_from_tables,
    boundary_cycle,
    brute_edge_weights,
    cmp_angular_lists,
    compute_C_tables,
    compute_V_tables,
    corner_count,
    degenerate_instance_2d,
    direct_key_rows,
    is_boundary_cycle,
    naive_C_tables,
    naive_V_tables,
    ordinals,
    orientation,
    prune_by_cycle_sums,
    random_instance,
    slope_key,
    turn_sign,
)

DEGENERACIES = ("collinear", "shared_x", "rational")


def ctx_for(rows):
    return build_context(make_instance(2, rows))


def test_edge_weight_point_below():
    ctx = ctx_for([((0, 0), 1), ((2, 0), 1), ((1, -1), 5)])
    ew = precompute_edge_weights(ctx)
    # candidates in x order: (0,0), (1,-1), (2,0); edge between ordinals 0
    # and 2, at place 1 of row 0: the point below and the right end (2,0)
    assert ew.top[0][1] == 5 + 1
    assert ew.bot[0][1] == 5


def test_edge_weight_point_on_segment():
    ctx = ctx_for([((0, 0), 1), ((2, 0), 1), ((1, 0), 3)])
    ew = precompute_edge_weights(ctx)
    # the point on the segment and the right end count on or below, not below
    assert ew.top[0][1] == 3 + 1
    assert ew.bot[0][1] == 0


def test_edge_weight_no_intermediate():
    ctx = ctx_for([((0, 0), 1), ((2, 0), 1)])
    ew = precompute_edge_weights(ctx)
    # only the right end lies in the slab 0 < x <= 2
    assert ew.top[0] == [1]
    assert ew.bot[0] == [0]


def assert_shear_matches_rational(rng, inst):
    """The integer view has the lexicographic order and the orientations of
    the original rational points, and shears exactly when two share an x."""
    ctx = build_context(inst)
    pts = [wp.point for wp in inst.points]
    assert (ctx.shear_k != 1) == (len({x for x, _ in pts}) < len(pts))
    assert ctx.orig == sorted(range(len(pts)), key=pts.__getitem__)
    assert all(a < b for a, b in zip(ctx.xs, ctx.xs[1:]))
    view = list(zip(ctx.xs, ctx.ys))
    orig = [pts[i] for i in ctx.orig]
    for _ in range(30):
        a, b, c = (rng.randrange(len(pts)) for _ in range(3))
        assert orientation(view[a], view[b], view[c]) == orientation(
            orig[a], orig[b], orig[c]
        )
    return ctx


def test_integer_shear_keeps_order_and_orientation():
    rng = random.Random(71)
    for t in range(90):
        inst = degenerate_instance_2d(rng, DEGENERACIES[t % 3], rng.randint(1, 12))
        assert_shear_matches_rational(rng, inst)


def grid_instance(rng, xs, ys, n):
    """n > len(xs) distinct grid points, at least one on every x, so two share an x.

    Raises ``ValueError`` before drawing when the grid has fewer than n cells.
    """
    if n > len(xs) * len(ys):
        raise ValueError(f"{n} distinct points do not fit a {len(xs)} x {len(ys)} grid")
    cells = {(x, rng.choice(ys)) for x in xs}
    while len(cells) < n:
        cells.add((rng.choice(xs), rng.choice(ys)))
    return make_instance(2, [(p, rng.choice([-2, -1, 1, 3])) for p in cells])


def test_grid_instance_rejects_more_points_than_cells():
    rng = random.Random(76)
    with pytest.raises(ValueError, match="do not fit"):
        grid_instance(rng, range(2), range(4), 9)
    assert len(grid_instance(rng, range(2), range(4), 8).points) == 8


def test_integer_shear_factor_two_and_unit_gap():
    rng = random.Random(75)
    for _ in range(40):
        # y spread 9 or less, x gap 10: s = spread // 10 + 2 = 2.
        inst = grid_instance(rng, range(-20, 20, 10), range(-4, 6), rng.randint(5, 14))
        assert assert_shear_matches_rational(rng, inst).shear_k == 2
        # x gap 1: s = spread + 2, the smallest factor above the y spread.
        inst = grid_instance(rng, range(3, 6), range(-6, 7), rng.randint(4, 14))
        ctx = assert_shear_matches_rational(rng, inst)
        ys = [wp.point[1] for wp in inst.points]
        assert ctx.shear_k == max(ys) - min(ys) + 2
    # One distinct x: the shear still orders the points by y.
    inst = make_instance(2, [((7, y), 1) for y in (4, -3, 0)])
    assert assert_shear_matches_rational(rng, inst).shear_k == 4 - (-3) + 2


def test_integer_shear_keeps_ngon_width():
    # The y spread of the ngon family is at most 2^9 times its smallest x
    # gap, so the sheared x is at most 8 bits wider than the scaled x; a
    # shear by (y spread) + 1 would double its width.
    for n in range(24, 33):
        inst = gen_ngon_family(n)
        ctx = build_context(inst)
        scaled = scale_to_integers([wp.point for wp in inst.points])
        width = max(abs(x).bit_length() for x, _ in scaled)
        assert ctx.shear_k < 2**9
        assert max(abs(x).bit_length() for x in ctx.xs) <= width + 8


def farey_instance(span, sign):
    # From (0, 0), the runs span - 1 and span give the slopes sign/(span - 1)
    # and sign/span, which differ by 1/(span (span - 1)): the smallest gap two
    # slopes with runs <= X = span can have (1/X^2 itself needs runs X and X,
    # whose slopes differ by a multiple of 1/X).
    return make_instance(
        2, [((0, 0), 1), ((span - 1, sign), 1), ((span, sign), 1), ((span // 2, 0), -1)]
    )


def slope_corpus():
    rng = random.Random(72)
    out = [farey_instance(1000, 1), farey_instance(1000, -1), farey_instance(2, 1)]
    # equal slopes over different runs, rising and falling
    out.append(make_instance(2, [((2 * a, a), 1) for a in range(5)] + [((1, 3), -1)]))
    out.append(make_instance(2, [((3 * a, -2 * a), 1) for a in range(5)] + [((2, 9), 2)]))
    out += [degenerate_instance_2d(rng, DEGENERACIES[t % 3], rng.randint(2, 12)) for t in range(60)]
    out += [gen_ngon_family(n) for n in (24, 32)]
    return out


def test_slope_key_is_order_isomorphic_to_slope():
    # At M = X^2 the key orders the slopes exactly, ties included.  Under
    # the cap (the ngon family) it still never reverses two of them.
    for inst in slope_corpus():
        ctx = build_context(inst)
        xs, ys = ctx.xs, ctx.ys
        n = len(xs)
        slope = {
            (a, b): Fraction(ys[b] - ys[a], xs[b] - xs[a])
            for a in range(n)
            for b in range(a + 1, n)
        }
        order = sorted(slope, key=slope.get)
        exact = (xs[-1] - xs[0]) ** 2 if n else 0
        for scale in {ctx.slope_scale, exact}:
            ctx.slope_scale = scale
            keys = [slope_key(ctx, a, b) for a, b in order]
            for (p, q), (kp, kq) in zip(zip(order, order[1:]), zip(keys, keys[1:])):
                assert kp <= kq
                if scale == exact or slope[p] == slope[q]:
                    assert (kp == kq) == (slope[p] == slope[q])


def test_slope_key_tightest_gap():
    ctx = build_context(farey_instance(1000, 1))
    assert ctx.slope_scale == 1000**2
    # sorted positions: (0,0), (500,0), (999,1), (1000,1)
    assert slope_key(ctx, 0, 3) == 1000  # exactly M/1000, no rounding
    assert slope_key(ctx, 0, 2) == 1001  # floor(10^6 / 999)
    ctx = build_context(farey_instance(1000, -1))
    assert slope_key(ctx, 0, 3) == -1000
    assert slope_key(ctx, 0, 2) == -1002  # floor(-10^6 / 999)


def edge_weight_corpus():
    rng = random.Random(73)
    out = [degenerate_instance_2d(rng, DEGENERACIES[t % 3], rng.randint(1, 14)) for t in range(150)]
    for _ in range(40):
        # collinear runs through an anchor, on both of its sides, on a few lines
        rows = {}
        for slope in rng.sample([-2, -1, 0, 1, Fraction(1, 3), 3], 3):
            for a in rng.sample(range(-5, 6), 5):
                rows[(Fraction(a), slope * a)] = rng.choice([-3, -1, 1, 2, Fraction(5, 2)])
        for _ in range(4):
            rows[(Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-9, 9)))] = rng.choice([-2, 1])
        out.append(make_instance(2, list(rows.items())))
    tiny = Fraction(1, 2**60)
    for _ in range(40):
        rows = {}
        while len(rows) < 10:
            p = (rng.randint(-6, 6) * tiny + rng.randint(0, 2), rng.randint(-6, 6) * tiny)
            rows[p] = Fraction(rng.choice([-7, -1, 1, 3]), rng.choice([1, 2**60, 3]))
        out.append(make_instance(2, list(rows.items())))
    out += [gen_ngon_family(n) for n in range(24, 33)]
    out += [gen_uniform(200, 2, seed) for seed in range(3)]
    return out


def test_edge_weights_match_brute_force():
    for inst in edge_weight_corpus():
        ctx = build_context(inst)
        assert precompute_edge_weights(ctx) == brute_edge_weights(ctx)


def exact_scale(ctx):
    return (ctx.xs[-1] - ctx.xs[0]) ** 2


def scaled_instance(inst, f):
    return make_instance(2, [((x * f, y * f), wp.weight) for wp in inst.points for x, y in [wp.point]])


def has_exact_tie(ctx):
    """Does some point q right of a candidate a lie on the line through a and
    another candidate b > a?  Then key(a, q) = key(a, b) at any scale."""
    xs, ys, cand = ctx.xs, ctx.ys, ctx.cand
    return any(
        (xs[b] - xs[a]) * (ys[q] - ys[a]) == (ys[b] - ys[a]) * (xs[q] - xs[a])
        for a in cand
        for b in cand
        if b > a
        for q in range(a + 1, len(xs))
        if q != b
    )


def assert_exact_after_fallback(inst):
    ctx = build_context(inst)
    assert ctx.slope_scale == KEY_CAP < exact_scale(ctx)
    ew = precompute_edge_weights(ctx)
    assert ctx.slope_scale == exact_scale(ctx)
    assert ew == brute_edge_weights(ctx)
    for allow_empty in (True, False):
        ref = solve_bruteforce(inst, allow_empty=allow_empty)
        assert solve_2d(inst, allow_empty=allow_empty).weight == ref.weight


def test_big_inputs_keep_the_capped_slope_key(monkeypatch):
    # X^2 > 2^64 on the ngon family and on the sheared gen_uniform(200)
    # seeds, and no candidate's key shares its own row under the cap: the
    # pair pass runs once, at 2^64.  A fallback would run it twice.
    passes, pair_pass = [], solver2d._pair_pass

    def counted(ctx, capped):
        passes.append(capped)
        return pair_pass(ctx, capped)

    monkeypatch.setattr(solver2d, "_pair_pass", counted)
    instances = [gen_ngon_family(n) for n in range(24, 33)]
    instances += [gen_uniform(200, 2, seed) for seed in (5, 13, 50, 77, 81)]
    for inst in instances:
        ctx = build_context(inst)
        assert ctx.slope_scale == KEY_CAP < exact_scale(ctx)
        passes.clear()
        precompute_edge_weights(ctx)
        assert passes == [True]
        assert ctx.slope_scale == KEY_CAP


def test_capped_key_pass_equals_the_exact_pass():
    # With every candidate's key alone in its own row, the pass under the
    # cap gives the sums, the places and counts, and the candidates'
    # counterclockwise order of the uncapped key (module docstring).
    instances = [gen_ngon_family(n) for n in range(24, 33)]
    instances += [gen_uniform(200, 2, seed) for seed in (5, 13)]
    for inst in instances:
        ctx = build_context(inst)
        capped = precompute_edge_weights(ctx)
        assert ctx.slope_scale == KEY_CAP
        ctx.slope_scale = exact_scale(ctx)
        exact = _pair_pass(ctx, False)
        assert capped == exact
        assert capped.ranks == exact.ranks


def parallel_pair_in_other_row(ctx):
    """Does a pair (a, b) of a candidate a and a candidate b > a have the
    exact slope of a pair (c, q) of another candidate c that shares no
    point with it?  Then key(a, b) = key(c, q) at any scale."""
    xs, ys, cand = ctx.xs, ctx.ys, ctx.cand
    by_slope = {}
    for a in cand:
        for q in range(a + 1, len(xs)):
            by_slope.setdefault(Fraction(ys[q] - ys[a], xs[q] - xs[a]), []).append((a, q))
    return any(
        ctx.ws[b] > 0 and c != a and not {a, b} & {c, q}
        for group in by_slope.values()
        for a, b in group
        for c, q in group
    )


def test_pair_pass_on_mixed_tie_groups():
    # Key groups that mix ties within a row (a point on the line through two
    # candidates, right of the left one) with parallel pairs of other rows
    # that share no point, at the exact scale and scaled by 2^40 (X^2 >
    # 2^64, the capped key).  The sums, the lists and both chains' fc and p
    # stay exact, and the pass falls back exactly when a candidate pair's
    # key is shared within its own row: a parallel pair never makes it.
    rng = random.Random(99)
    kinds = Counter()
    for _ in range(120):
        grid = grid_instance(rng, range(4), range(4), rng.randint(6, 11))
        base = build_context(grid)
        within = has_exact_tie(base)
        kinds[within, parallel_pair_in_other_row(base)] += 1
        for inst in (grid, scaled_instance(grid, 2**40)):
            ctx = build_context(inst)
            capped = ctx.slope_scale < exact_scale(ctx)
            ew = precompute_edge_weights(ctx)
            assert (ctx.slope_scale == KEY_CAP) == (capped and not within)
            assert ew == brute_edge_weights(ctx)
            assert ordinals(build_angular_lists(ctx, ew)) == cmp_angular_lists(ctx)
            assert_chain_rows_match_direct_search(ctx)
    assert min(kinds[True, True], kinds[False, True]) >= 10, kinds


def test_exact_ties_under_the_cap_fall_back_to_the_exact_key():
    # Tie-heavy grids scaled by 2^40, so X^2 > 2^64.  A point on the line
    # through two candidates right of the left one ties with the right one
    # at any scale, so the pass must fall back to X^2.
    rng = random.Random(96)
    ties = 0
    for _ in range(100):
        grid = grid_instance(rng, range(rng.randint(2, 4)), range(4), rng.randint(5, 8))
        inst = scaled_instance(grid, 2**40)
        if not has_exact_tie(build_context(inst)):
            continue
        ties += 1
        assert_exact_after_fallback(inst)
    assert ties >= 40, ties


def test_slopes_closer_than_the_cap_fall_back_to_the_exact_key():
    # From (0, 0) the rises 1 over the runs 2^40 - 1 and 2^40, or -1 over
    # 2^40 and 2^40 + 1, give slopes that differ by about 2^-80: one key
    # under the cap, two under X^2 >= 2^80.  No three points are collinear.
    # The merged pair is two candidates, or a candidate and a negative point.
    for sign, run in ((1, 2**40 - 1), (-1, 2**40)):
        for w_near, w_far in ((1, 1), (1, -2), (-2, 1)):
            inst = make_instance(
                2, [((0, 0), 3), ((run, sign), w_near), ((run + 1, sign), w_far), ((run // 2, 0), -1)]
            )
            ctx = build_context(inst)
            assert not has_exact_tie(ctx)
            assert slope_key(ctx, 0, 2) == slope_key(ctx, 0, 3)
            assert_exact_after_fallback(inst)


def test_capped_tie_in_b_row_implies_one_in_a_row():
    # Points on a near-line: x_i = i * 2^40 + d_i with d_i < 2^12, y_i = i,
    # so under the cap most keys are 2^24 or 2^24 - 1.  Whenever key(a, b)
    # ties in b's row it ties in a's row too, which is why the pass checks
    # each candidate's key only in its own row (module docstring).  The pass
    # falls back exactly when some key(a, b) ties in a's row, and its sums
    # are exact either way.
    rng = random.Random(97)
    b_ties = fallbacks = 0
    for _ in range(20):
        rows = [((i * 2**40 + rng.randrange(2**12), i), rng.choice([-2, 1, 3])) for i in range(9)]
        ctx = build_context(make_instance(2, rows))
        if not ctx.cand:
            continue
        assert ctx.slope_scale == KEY_CAP
        keys = {p: _key_row(ctx.xs, ctx.ys, p, KEY_CAP) for p in ctx.cand}
        a_tied = False
        for pa in ctx.cand:
            for pb in ctx.cand:
                if pb > pa:
                    k = keys[pa][pb - pa - 1]
                    in_a, in_b = keys[pa].count(k) > 1, k in keys[pb]
                    b_ties += in_b
                    assert in_a or not in_b
                    a_tied |= in_a
        ew = precompute_edge_weights(ctx)
        fallbacks += a_tied
        assert (ctx.slope_scale == exact_scale(ctx)) == a_tied
        assert ew == brute_edge_weights(ctx)
    assert b_ties >= 100 and fallbacks >= 5, (b_ties, fallbacks)


def direct_ranks(ctx):
    """``solver2d.Ranks`` from the slope keys of the candidate pairs alone,
    at the context's current scale: the places of each key's tie group in
    the counterclockwise lists, the counts in b's row, and those lists."""
    cand, m = ctx.cand, len(ctx.cand)
    key = [[slope_key(ctx, cand[a], cand[c]) for c in range(a + 1, m)] for a in range(m)]

    def below(a, k):
        return sum(v < k for v in key[a])

    def upto(a, k):
        return sum(v <= k for v in key[a])

    pairs = [[(a, b, key[a][b - a - 1]) for b in range(a + 1, m)] for a in range(m)]
    return solver2d.Ranks(
        [[below(a, k) for a, _, k in row] for row in pairs],
        [[upto(a, k) - 1 for a, _, k in row] for row in pairs],
        [[below(b, k) for _, b, k in row] for row in pairs],
        [[upto(b, k) for _, b, k in row] for row in pairs],
        [sorted(range(m - 1 - a), key=lambda x: (key[a][x], -x)) for a in range(m)],
    )


def test_angular_lists_match_comparator_sort():
    rng = random.Random(74)
    instances = [
        degenerate_instance_2d(rng, DEGENERACIES[t % 3], rng.randint(1, 12))
        for t in range(90)
    ]
    instances += [gen_ngon_family(n) for n in range(24, 33)]
    instances += [gen_uniform(60, 2, seed) for seed in range(4)]
    for inst in instances:
        ctx = build_context(inst)
        ew = precompute_edge_weights(ctx)
        lists = build_angular_lists(ctx, ew)
        assert ordinals(lists) == cmp_angular_lists(ctx)
        # The pass's counterclockwise lists (ascending key, ties by
        # descending x), tie-group places and counts, from the keys alone.
        assert ew.ranks == direct_ranks(ctx)


def test_angular_lists_from_shared_key_rows():
    rng = random.Random(75)
    instances = [
        degenerate_instance_2d(rng, DEGENERACIES[t % 3], rng.randint(1, 12))
        for t in range(90)
    ]
    instances += [gen_ngon_family(n) for n in range(24, 33)]
    for inst in instances:
        ctx = build_context(inst)
        lists = build_angular_lists(ctx, precompute_edge_weights(ctx))
        # The lists read off the edge-weight pass's rows are a stable sort of
        # the candidates right of j by -key(j, .).
        for j, row in enumerate(direct_key_rows(ctx)):
            assert lists[j] == sorted(range(len(row)), key=row.__getitem__)


def test_angular_lists_collinear_middle():
    ctx = ctx_for([((0, 0), 1), ((1, 0), 1), ((2, 0), 1)])
    lists = build_angular_lists(ctx, precompute_edge_weights(ctx))
    assert ordinals(lists) == [[1, 2], [2], []]


def test_angular_lists_clockwise_top_to_bottom():
    # right points at +45, 0, -45 degrees around the origin point
    ctx = ctx_for([((0, 0), 1), ((1, 1), 1), ((2, 0), 1), ((1, -1), 1)])
    lists = build_angular_lists(ctx, precompute_edge_weights(ctx))
    j = 0  # ordinal of (0,0)
    pts = [ctx.instance.points[ctx.orig[ctx.cand[c]]].point for c in ordinals(lists)[j]]
    assert pts == [(1, 1), (2, 0), (1, -1)]


def test_angular_lists_sizes_and_order():
    rng = random.Random(8)
    for _ in range(100):
        inst = random_instance(rng, rng.randint(2, 9), 2, 1, 3)
        ctx = build_context(inst)
        lists = ordinals(build_angular_lists(ctx, precompute_edge_weights(ctx)))
        m = len(ctx.cand)
        xs, ys, cand = ctx.xs, ctx.ys, ctx.cand
        for j in range(m):
            seq = lists[j]
            assert sorted(seq) == list(range(j + 1, m))
            for a, b in zip(seq, seq[1:]):
                ua = (xs[cand[a]] - xs[cand[j]], ys[cand[a]] - ys[cand[j]])
                ub = (xs[cand[b]] - xs[cand[j]], ys[cand[b]] - ys[cand[j]])
                # clockwise: cross2(u_prev, u_next) <= 0
                assert ua[0] * ub[1] - ua[1] * ub[0] <= 0


def chain_readings(lists):
    """(reading lists as ordinals, turn sign) of the top chain and of the
    bottom chain, which reads the right lists counterclockwise."""
    right = ordinals(lists)
    return ((right, 1), ([row[::-1] for row in right], -1))


def first_compatible_rows(ew, lists):
    """Each chain's fc(i, c) from ``compute_first_compatible``, row i over
    the candidates c of i's reading list, in reading order: each address
    less doff[c], the start of column c's slots."""
    doff = list(accumulate(range(len(lists), 0, -1), initial=0))
    tables = (
        compute_first_compatible(ew.ranks, doff, True),
        compute_first_compatible(ew.ranks, doff, False),
    )
    return [
        [[fc[i][c - i - 1] - doff[c] for c in reading] for i, reading in enumerate(readings)]
        for (readings, _), fc in zip(chain_readings(lists), tables)
    ]


def test_first_compatible_monotone():
    # For a fixed c, fc(i, c) is nondecreasing in the key of c in i's
    # reading list: -key(i, c) for the top chain, key(i, c) for the bottom.
    rng = random.Random(21)
    for _ in range(60):
        inst = random_instance(rng, rng.randint(2, 9), 2, 1, 3)
        ctx = build_context(inst)
        ew = precompute_edge_weights(ctx)
        lists = build_angular_lists(ctx, ew)
        for (reading, sign), fc in zip(chain_readings(lists), first_compatible_rows(ew, lists)):
            by_c = {}
            for i, (row, fcs) in enumerate(zip(reading, fc)):
                for c, f in zip(row, fcs):
                    key = -sign * slope_key(ctx, ctx.cand[i], ctx.cand[c])
                    by_c.setdefault(c, []).append((key, f))
            for pairs in by_c.values():
                fs = [f for _, f in sorted(pairs)]
                assert fs == sorted(fs)


def direct_first_compatible(ctx, readings, sign):
    """The pointer rows by direct search: row i holds, for each c of
    ``readings[i]`` in reading order, the first position in ``readings[c]``
    whose turn (i, c, r) has ``sign`` or is collinear."""
    return [
        [
            next(
                (p for p, r in enumerate(readings[c]) if sign * turn_sign(ctx, i, c, r) >= 0),
                len(readings[c]),
            )
            for c in reading
        ]
        for i, reading in enumerate(readings)
    ]


def test_first_compatible_matches_direct_search():
    rng = random.Random(23)
    instances = [
        degenerate_instance_2d(rng, DEGENERACIES[t % 3], rng.randint(1, 12))
        for t in range(90)
    ]
    instances += [gen_ngon_family(n) for n in range(24, 33)]
    instances += [gen_uniform(60, 2, seed) for seed in range(4)]
    for inst in instances:
        ctx = build_context(inst)
        ew = precompute_edge_weights(ctx)
        lists = build_angular_lists(ctx, ew)
        for (reading, sign), fc in zip(chain_readings(lists), first_compatible_rows(ew, lists)):
            assert fc == direct_first_compatible(ctx, reading, sign)


def assert_chain_rows_match_direct_search(ctx):
    """The sweep's rows against the direct pointer search: fc(i, c) from the
    addresses, and p(i, k), the last position of k's tie group in i's
    reading list, from the p table."""
    ew = precompute_edge_weights(ctx)
    lists = build_angular_lists(ctx, ew)
    chains = _chains(ctx, ew, lists)
    for ch, (readings, sign) in zip(chains, chain_readings(lists)):
        assert ordinals(ch.order) == readings
        direct = direct_first_compatible(ctx, readings, sign)
        for i, reading in enumerate(readings):
            assert ch.addrs[i] == [ch.doff[c] + f for c, f in zip(reading, direct[i])]
            for k in reading:
                p = max(x for x, c in enumerate(reading) if turn_sign(ctx, i, c, k) == 0)
                assert ch.p[i][k - i - 1] == p


def test_chain_rows_match_direct_search():
    rng = random.Random(24)
    instances = [
        degenerate_instance_2d(rng, DEGENERACIES[t % 3], rng.randint(1, 12))
        for t in range(60)
    ]
    instances += [gen_ngon_family(n) for n in (24, 29)]
    for inst in instances:
        assert_chain_rows_match_direct_search(build_context(inst))


def test_c_base_two_points():
    ctx = ctx_for([((0, 0), 2), ((3, 1), 4), ((1, -2), -1)])
    ew = precompute_edge_weights(ctx)
    lists = build_angular_lists(ctx, ew)
    ctab = compute_C_tables(ctx, ew, lists)
    # candidates: (0,0)=0, (3,1)=1; the negative point only feeds edge weights.
    # The cell is top(0, 1): the -1 below the edge and the right end's 4; the
    # left end's 2 is added once per pair, outside the chains.
    assert ctab[(0, 1, 1)] == -1 + 4


def test_c_base_infeasible_is_none():
    # middle candidate strictly below the chord: C[i, j, k] = -inf
    ctx = ctx_for([((0, 2), 1), ((1, 0), 1), ((2, 2), 1)])
    ew = precompute_edge_weights(ctx)
    lists = build_angular_lists(ctx, ew)
    ctab = compute_C_tables(ctx, ew, lists)
    assert ctab[(0, 1, 2)] is None
    vtab = compute_V_tables(ctx, ew, lists)
    assert vtab[(0, 1, 2)] is not None


def test_tables_match_naive():
    rng = random.Random(4)
    for _ in range(60):
        inst = random_instance(rng, rng.randint(1, 9), 2, -4, 4)
        ctx = build_context(inst)
        ew = precompute_edge_weights(ctx)
        lists = build_angular_lists(ctx, ew)
        assert compute_C_tables(ctx, ew, lists) == naive_C_tables(ctx, ew)
        assert compute_V_tables(ctx, ew, lists) == naive_V_tables(ctx, ew)


def test_solver_matches_table_weight():
    rng = random.Random(14)
    for _ in range(40):
        inst = random_instance(rng, rng.randint(1, 8), 2, -4, 4)
        ctx = build_context(inst)
        if not ctx.cand:
            continue
        ew = precompute_edge_weights(ctx)
        lists = build_angular_lists(ctx, ew)
        w = best_weight_from_tables(
            ctx, naive_C_tables(ctx, ew), naive_V_tables(ctx, ew)
        )
        sol = solve_2d(inst, allow_empty=False)
        assert sol.weight == w


def test_cycle_weight_matches_evaluate():
    # Every rotation of the boundary cycle of the empty set, of one point, of
    # every size from two points up and of all candidates.
    rng = random.Random(52)
    sizes = set()
    for t in range(150):
        inst = degenerate_instance_2d(rng, DEGENERACIES[t % 3], rng.randint(1, 10))
        ctx = build_context(inst)
        m = len(ctx.cand)
        if not m:
            continue
        ew = precompute_edge_weights(ctx)
        subsets = [[], list(range(m)), [rng.randrange(m)]]
        subsets += [rng.sample(range(m), k) for k in range(2, m + 1)]
        for seq in subsets:
            chosen = [ctx.orig[ctx.cand[c]] for c in seq]
            expect = evaluate(inst, chosen).weight * inst.integer_view[2]
            cycle = boundary_cycle(ctx, seq)
            sizes.add(len(cycle))
            for r in range(max(len(cycle), 1)):
                assert _cycle_weight(ctx, ew, cycle[r:] + cycle[:r]) == expect
    assert {0, 1, 2, 3} <= sizes, sizes


def test_cycle_weight_collinear_set():
    # three candidates on one line with a negative point on the open segment
    # and one just below it; the middle candidate may sit on either side
    inst = make_instance(
        2, [((0, 0), 2), ((2, 2), 1), ((4, 4), 3), ((1, 1), -1), ((3, 2), -5)]
    )
    ctx = build_context(inst)
    ew = precompute_edge_weights(ctx)
    assert _cycle_weight(ctx, ew, [0, 1, 2]) == 5
    assert _cycle_weight(ctx, ew, [0, 2, 1]) == 5
    assert _cycle_weight(ctx, ew, [0, 2]) == 5
    assert _cycle_weight(ctx, ew, [1]) == 1


def test_prune_with_tables_matches_model_prune():
    # The boundary cycles of random candidate subsets, pruned from the tables
    # and by the model, on the degenerate corpus and on small grids.
    with_inner = 0

    def check(rng, inst):
        nonlocal with_inner
        ctx = build_context(inst)
        m = len(ctx.cand)
        ew = precompute_edge_weights(ctx)
        subsets = [list(range(m))] + [
            [c for c in range(m) if rng.random() < 0.6] for _ in range(3)
        ]
        for seq in subsets:
            cycle = boundary_cycle(ctx, seq)
            with_inner += len(cycle) > corner_count(ctx, cycle)
            chosen = {ctx.orig[ctx.cand[c]] for c in cycle}
            kept, w = prune_with_tables(ctx, ew, cycle)
            assert kept == prune_to_maximal(inst, chosen)
            assert w == evaluate(inst, kept).weight * inst.integer_view[2]
        for allow_empty in (True, False):
            sol = solve_2d(inst, allow_empty=allow_empty)
            assert sol.weight == solve_bruteforce(inst, allow_empty=allow_empty).weight
            if sol.weight > 0:
                assert prune_to_maximal(inst, sol.chosen) == sol.chosen

    rng = random.Random(61)
    for t in range(150):
        check(rng, degenerate_instance_2d(rng, DEGENERACIES[t % 3], rng.randint(1, 10)))
    rng = random.Random(62)
    for _ in range(60):
        check(rng, grid_instance(rng, range(4), range(4), rng.randint(6, 12)))
    assert with_inner >= 80, with_inner


def walked_cycles(monkeypatch, instances):
    """(ctx, ew, cycle) of every prune ``solve_2d`` runs on these instances,
    in both ``allow_empty`` modes."""
    out, prune = [], solver2d.prune_with_tables

    def recorded_prune(ctx, ew, cycle):
        out.append((ctx, ew, list(cycle)))
        return prune(ctx, ew, cycle)

    monkeypatch.setattr(solver2d, "prune_with_tables", recorded_prune)
    for inst in instances:
        for allow_empty in (True, False):
            solve_2d(inst, allow_empty=allow_empty)
    monkeypatch.setattr(solver2d, "prune_with_tables", prune)
    return out


def test_prune_deltas_match_whole_cycle_sums(monkeypatch):
    # The O(1) trials keep the vertices and the weight of the prune that
    # sums the whole cycle per trial, on every walked cycle of the
    # degenerate corpus, the ngon family and uniform instances.
    rng = random.Random(98)
    corpus = [degenerate_instance_2d(rng, DEGENERACIES[t % 3], rng.randint(1, 10)) for t in range(300)]
    corpus += [gen_ngon_family(n) for n in range(24, 33)]
    corpus += [gen_uniform(100, 2, seed) for seed in range(4)]
    cycles = walked_cycles(monkeypatch, corpus)
    drops = 0
    for ctx, ew, cycle in cycles:
        kept, w = prune_with_tables(ctx, ew, cycle)
        assert (kept, w) == prune_by_cycle_sums(ctx, ew, cycle)
        drops += len(cycle) - len(kept)
    assert len(cycles) >= 500 and drops >= 60, (len(cycles), drops)


def assert_prunes_to(rows, kept, weight):
    """The boundary cycle of every candidate of ``rows`` prunes to the
    instance indices ``kept`` of the given weight, by the delta trials, the
    whole-cycle sums and the model."""
    inst = make_instance(2, rows)
    ctx = build_context(inst)
    ew = precompute_edge_weights(ctx)
    cycle = boundary_cycle(ctx, range(len(ctx.cand)))
    expect = (kept, weight * inst.integer_view[2])
    assert prune_with_tables(ctx, ew, cycle) == expect
    assert prune_by_cycle_sums(ctx, ew, cycle) == expect
    assert prune_to_maximal(inst, [i for i, (_, w) in enumerate(rows) if w > 0]) == kept


def test_prune_drops_collinear_boundary_points():
    # A square with points inside its edges: each edge point drops (the hull
    # keeps it), top, bottom and vertical edges alike, one per restart.
    corners = [((0, 0), 1), ((6, 0), 1), ((6, 6), 1), ((0, 6), 1)]
    edges = [((2, 0), 2), ((4, 0), 1), ((6, 3), 1), ((3, 6), 2), ((0, 3), 1)]
    assert_prunes_to(edges + corners, (5, 6, 7, 8), 11)
    # The same on a tilted square, where no two points share an x.
    tilted = [((3 * x - y, x + 3 * y), w) for (x, y), w in edges + corners]
    assert_prunes_to(tilted, (5, 6, 7, 8), 11)


def test_prune_drops_the_leftmost_and_the_rightmost_vertex():
    # Each end pays 1 and, once dropped, leaves out a -3 point beside it.
    left = [((0, 0), 1), ((2, 0), -3)]
    right = [((24, 0), 1), ((22, 0), -3)]
    body = [((10, 5), 5), ((11, -5), 5), ((14, 5), 5), ((15, -5), 5)]
    assert_prunes_to(left + body, (2, 3, 4, 5), 20)
    assert_prunes_to(body + right, (0, 1, 2, 3), 20)
    # Both ends and the points inside the top and bottom edges: four drops,
    # each followed by a restart.
    inner = [((12, 5), 2), ((13, -5), 2)]
    assert_prunes_to(left + inner + body + right, (4, 5, 6, 7), 24)
    # The left end of a triangle drops, and its two neighbours weigh 3 and
    # 2: the new leftmost point is the one of them further left.
    triangle = [((0, 0), 1), ((4, 4), 3), ((5, -3), 2), ((1, 0), -3)]
    assert_prunes_to(triangle, (1, 2), 5)
    # Either point of a two-point cycle drops: the trial's neighbours p and
    # n are the same point, and e(p -> p) = 0.  A single point never drops,
    # as the empty set weighs 0.
    between = [((2, 0), -2)]
    assert_prunes_to([((0, 0), 1), ((4, 0), 3)] + between, (1,), 3)
    assert_prunes_to([((0, 0), 3), ((4, 0), 1)] + between, (0,), 3)
    assert_prunes_to([((0, 0), 1)] + between, (0,), 1)


def test_walked_cycles_are_boundary_cycles(monkeypatch):
    # Every cycle solve_2d hands to the prune is a boundary cycle of its
    # points, also when a walked point is no hull vertex (non-strict) and
    # when a point lies on both walked paths (shared).
    walks, cycles = {}, []
    walk, prune = solver2d._walk, solver2d.prune_with_tables

    def recorded_walk(ctx, ch, *args):
        walks[ch.sign] = walk(ctx, ch, *args)  # 1: top path, -1: bottom path
        return walks[ch.sign]

    def recorded_prune(ctx, ew, cycle):
        cycles.append((ctx, list(cycle)))
        return prune(ctx, ew, cycle)

    monkeypatch.setattr(solver2d, "_walk", recorded_walk)
    monkeypatch.setattr(solver2d, "prune_with_tables", recorded_prune)
    counts = {"walks": 0, "non-strict": 0, "shared": 0}
    rng = random.Random(90)
    for t in range(1000):
        inst = degenerate_instance_2d(rng, DEGENERACIES[t % 3], rng.randint(1, 10))
        for allow_empty in (True, False):
            walks.clear()
            cycles.clear()
            solve_2d(inst, allow_empty=allow_empty)
            if not walks:
                continue
            (ctx, cycle), top, bottom = cycles[0], walks[1], walks[-1]
            assert is_boundary_cycle(ctx, cycle), (bottom, top, cycle)
            assert set(cycle) == set(bottom) | set(top)
            counts["walks"] += 1
            counts["non-strict"] += len(cycle) > corner_count(ctx, cycle)
            counts["shared"] += bool(set(top[1:-1]) & set(bottom))
    assert counts["non-strict"] >= 120 and counts["shared"] >= 40, counts


def test_ngon_witness_is_maximal_by_cyclic_prune():
    for n in range(24, 33):
        inst = gen_ngon_family(n)
        sol = solve_2d(inst)
        assert sol.weight == n
        assert prune_to_maximal(inst, sol.chosen) == sol.chosen


def test_witness_checks_raise(monkeypatch):
    inst = make_instance(2, [((0, 0), 1), ((4, 0), 1), ((2, 3), 1), ((2, 1), -1)])
    prune = solver2d.prune_with_tables

    def off_by_one(*args):
        kept, w = prune(*args)
        return kept, w + 1

    monkeypatch.setattr(solver2d, "prune_with_tables", off_by_one)
    with pytest.raises(RuntimeError, match="table weight"):
        solve_2d(inst)
    monkeypatch.setattr(solver2d, "prune_with_tables", prune)
    monkeypatch.setattr(solver2d, "evaluate", lambda i, chosen: evaluate(i, chosen[:1]))
    with pytest.raises(RuntimeError, match="reproduce the optimum"):
        solve_2d(inst)


def test_triangle_with_inner_negative():
    inst = make_instance(2, [((0, 0), 1), ((4, 0), 1), ((2, 3), 1), ((2, 1), -1)])
    sol = solve_2d(inst)
    assert sol.weight == 2
    assert_valid_witness(inst, sol)


def test_triangle_with_outer_negative():
    inst = make_instance(2, [((0, 0), 1), ((4, 0), 1), ((2, 3), 1), ((10, 10), -1)])
    sol = solve_2d(inst)
    assert sol.weight == 3
    assert sol.chosen == (0, 1, 2)
    assert_valid_witness(inst, sol)


def test_tie_goes_to_smallest_leftmost_then_rightmost():
    # Two (leftmost, rightmost) candidate pairs weigh 4 in x order: (0, 3),
    # the points 5, 3 and 4, and (1, 2), the points 1 and 3.  The pair with
    # the smaller leftmost wins although its rightmost comes later.
    inst = make_instance(
        2, [((5, 3), -1), ((4, 0), 2), ((2, 3), -2), ((4, 4), 2), ((6, 6), 1), ((0, 5), 1)]
    )
    sol = solve_2d(inst)
    assert sol.weight == 4
    assert sol.chosen == (3, 4, 5)
    assert_valid_witness(inst, sol)


def _solve_walking(monkeypatch, inst, allow_empty=True):
    """solve_2d's solution and the (leftmost, rightmost) pair it walked, or
    None when it walked none."""
    pairs, walk = [], solver2d._walk

    def recorded_walk(ctx, ch, i0, k):
        pairs.append((i0, k))
        return walk(ctx, ch, i0, k)

    monkeypatch.setattr(solver2d, "_walk", recorded_walk)
    sol = solve_2d(inst, allow_empty=allow_empty)
    monkeypatch.setattr(solver2d, "_walk", walk)
    assert len(set(pairs)) <= 1
    return sol, pairs[0] if pairs else None


def test_tie_with_shared_leftmost_goes_to_smaller_rightmost(monkeypatch):
    # In x order the candidates are A, B, C, D (ordinals 0..3).  A, B, C
    # weigh 4, and so does their hull with D, which also holds the -1 point.
    # Both pairs start at A; the sweep fills slab 3 before slab 2, yet
    # (0, 2) must win.  P(2) = 4 equals the best, so slab 2 still runs.
    inst = make_instance(
        2, [((0, 0), 2), ((10, 10), 1), ((20, 2), 1), ((25, 1), -1), ((30, 0), 1)]
    )
    ref = solve_bruteforce(inst)
    assert ref.weight == 4 and ref.chosen == (0, 1, 2)
    assert ascending_sweep_best(build_context(inst)) == (4, 0, 2)
    sol, pair = _solve_walking(monkeypatch, inst)
    assert pair == (0, 2)
    assert sol == ref


def test_cut_is_strict_so_an_equal_reach_slab_still_runs(monkeypatch):
    # Two pairs of weight 1 on one line, split by a -10 point that every
    # polygon holding points of both pairs contains.  Both pairs weigh 2.
    # Slab 3 finds (2, 3) first; slab 1 reaches only P(1) = 2, the best so
    # far, yet holds the smaller pair (0, 1), so a <= cut would lose it.
    inst = make_instance(2, [((0, 0), 1), ((1, 0), 1), ((2, 0), -10), ((3, 0), 1), ((4, 0), 1)])
    ref = solve_bruteforce(inst)
    assert ref.weight == 2 and ref.chosen == (0, 1)
    assert ascending_sweep_best(build_context(inst)) == (2, 0, 1)
    for allow_empty in (True, False):
        sol, pair = _solve_walking(monkeypatch, inst, allow_empty)
        assert pair == (0, 1)
        assert sol == ref


def test_walked_pair_matches_ascending_sweep_on_ties(monkeypatch):
    # Small grids with weights in {-2, -1, 1, 3} tie often; the cut sweep
    # must pick the pair the full ascending sweep picks.  Most winning slabs
    # sit right at the cut's bound: P(k) equals the optimum.
    rng = random.Random(93)
    at_bound = 0
    for _ in range(150):
        inst = grid_instance(rng, range(rng.randint(2, 4)), range(4), rng.randint(5, 8))
        ctx = build_context(inst)
        if not ctx.cand:
            continue
        w, i, k = ascending_sweep_best(ctx)
        sol, pair = _solve_walking(monkeypatch, inst, allow_empty=False)
        assert sol.weight * inst.integer_view[2] == w
        assert sol.weight == solve_bruteforce(inst, allow_empty=False).weight
        if i == k:
            assert pair is None and sol.chosen == (ctx.orig[ctx.cand[i]],)
        else:
            assert pair == (i, k)
        at_bound += sum(ctx.ws[p] for p in ctx.cand[: k + 1]) == w
    assert at_bound >= 50, at_bound


def _sentinel_margins(inst):
    """(least feasible cell, largest read, largest base) over the reads
    base(j, c) + column c with c > k, per chain and slab k that has both.

    Read off the solver's own sweep: the cells from ``_tables``, the reads
    from the chain rows and ``sufmax`` once ``_fill_slab`` has filled slab k
    (k = m - 1 down to 0, as ``solve_2d`` runs them).  Slab k reads every c
    at a position <= p(j, k) of j's reading list.
    """
    ctx = build_context(inst)
    ew = precompute_edge_weights(ctx)
    lists = build_angular_lists(ctx, ew)
    out = []
    for ch, swept in zip(_chains(ctx, ew, lists), _chains(ctx, ew, lists)):
        least = {}
        for (_, _, k), v in _tables(ch).items():
            if v is not None:
                least[k] = min(least.get(k, ch.sign * v), ch.sign * v)
        order = ordinals(swept.order)
        for k in range(len(order) - 1, -1, -1):
            solver2d._fill_slab(swept, k)
            reads = [
                (base + swept.sufmax[at], base)
                for j in range(k)
                for f, (c, base, at) in enumerate(
                    zip(order[j], swept.bases[j], swept.addrs[j]))
                if f <= swept.p[j][k - j - 1] and c > k
            ]
            if reads and k in least:
                out.append((least[k], *map(max, zip(*reads))))
    return out


def test_sentinel_reads_stay_below_every_feasible_cell():
    # Columns right of k hold none, so a read from one is base(j, c) + none
    # (module docstring: below -N on the top chain, below -P on the bottom
    # one).  Every such read must lose to the least feasible cell of its
    # slab; with 0 in those columns some read would not.
    rng = random.Random(94)
    corpus = [
        grid_instance(rng, range(rng.randint(2, 4)), range(4), rng.randint(5, 8))
        for _ in range(100)
    ]
    corpus += [
        degenerate_instance_2d(rng, DEGENERACIES[t % 3], rng.randint(3, 10))
        for t in range(150)
    ]
    margins = [mg for inst in corpus for mg in _sentinel_margins(inst)]
    assert len(margins) >= 500, len(margins)
    assert min(low - read for low, read, _ in margins) > 0
    assert min(low - base for low, _, base in margins) <= 0


def _assert_slab_slots_match_naive_cells(inst):
    """Fill every slab through ``_fill_slab``, k = m - 1 down and none cut, and
    check each slot against the quartic references.

    Slot f of column j, 1 <= j < k, must hold the largest of none and the
    reads at positions f..p(j, k) of j's reading list: the cell (j, c, k)
    from ``naive_C_tables`` / ``naive_V_tables`` for c <= k, and base(j, c)
    + none for c > k, a read of a column right of k, which loses to every
    cell.  ``best[j]`` must hold that maximum at f = 0, for j = 0 too.
    p(j, k) comes from a direct turn test and the bases from
    ``brute_edge_weights``, not from the solver's rows.  Returns the
    number of slots checked.
    """
    ctx = build_context(inst)
    ew = precompute_edge_weights(ctx)
    lists = build_angular_lists(ctx, ew)
    brute = brute_edge_weights(ctx)
    tables = (naive_C_tables(ctx, brute), naive_V_tables(ctx, brute))
    bases = (brute.top, [[-b for b in row] for row in brute.bot])
    checked = 0
    for ch, cells, base, (readings, sign) in zip(
        _chains(ctx, ew, lists), tables, bases, chain_readings(lists)
    ):
        for k in range(len(ctx.cand) - 1, -1, -1):
            solver2d._fill_slab(ch, k)
            for j in range(k):
                reading = readings[j]
                p = max(f for f, c in enumerate(reading) if turn_sign(ctx, j, c, k) == 0)
                run = ch.none
                for f in range(p, -1, -1):
                    c = reading[f]
                    v = sign * cells[(j, c, k)] if c <= k else base[j][c - j - 1] + ch.none
                    run = max(run, v)
                    if j:
                        assert ch.sufmax[ch.doff[j] + f] == run, (j, f, k)
                        checked += 1
                assert ch.best[j] == run, (j, k)
    return checked


def test_fill_slab_slots_match_naive_cells():
    # Criterion 3 reads only the slots at fc addresses; this pins every
    # slot 0..p(j, k) of every column j >= 1 and every best[j].
    rng = random.Random(95)
    corpus = [
        grid_instance(rng, range(rng.randint(2, 4)), range(4), rng.randint(5, 8))
        for _ in range(40)
    ]
    corpus += [
        degenerate_instance_2d(rng, DEGENERACIES[t % 3], rng.randint(3, 12))
        for t in range(60)
    ]
    corpus += [gen_ngon_family(n) for n in range(24, 33)]
    corpus += [gen_uniform(60, 2, seed) for seed in range(2)]
    assert sum(_assert_slab_slots_match_naive_cells(inst) for inst in corpus) >= 10_000


def test_solve_2d_memory_stays_quadratic():
    # Every table of a solve is a pair table (the sweep keeps one slot per
    # column and fc value, m(m + 1) / 2 per chain), so the tracemalloc peak
    # grows about as n^2, a log-log slope near 2; a row per (j, k) pair
    # would make it O(m^3), a slope near 3.  The bound sits between the two.
    peaks = []
    for n in (50, 100, 200):
        inst = gen_uniform(n, 2, 0)
        tracemalloc.start()
        try:
            solve_2d(inst)
            peaks.append((n, tracemalloc.get_traced_memory()[1]))
        finally:
            tracemalloc.stop()
    slope = _loglog_slope(peaks)
    assert slope < 2.5, f"tracemalloc peak slope {slope:.3f} over n = 50, 100, 200"


def test_sweep_cut_fills_only_slabs_that_can_reach_the_optimum(monkeypatch):
    # The sweep fills slab k exactly when P(k), the weight of candidates
    # 0..k, is at least the optimum: the best so far only rises as k falls
    # and never exceeds P of the slab that set it.  The last slab filled is
    # the smallest such k; the winning slab is refilled once per chain
    # exactly when it is another one.
    fills, fill = [], solver2d._fill_slab

    def counted_fill(ch, k):
        fills.append(ch.sign)
        return fill(ch, k)

    monkeypatch.setattr(solver2d, "_fill_slab", counted_fill)

    def swept(inst):
        fills.clear()
        sol, pair = _solve_walking(monkeypatch, inst)
        ctx = build_context(inst)
        best = sol.weight * inst.integer_view[2]
        reach = list(accumulate(ctx.ws[p] for p in ctx.cand))
        filled = [k for k, r in enumerate(reach) if r >= best]
        refilled = pair[1] != filled[0]
        assert fills.count(1) == fills.count(-1) == len(filled) + refilled
        return len(filled), refilled, len(ctx.cand)

    for n in range(24, 33):
        assert swept(gen_ngon_family(n)) == (1, False, n)
    filled, refilled, m = swept(gen_uniform(200, 2, 0))
    assert refilled and filled < m


def test_all_negative_gives_empty():
    inst = make_instance(2, [((0, 0), -1), ((1, 1), -2)])
    sol = solve_2d(inst)
    assert sol.weight == 0 and sol.chosen == ()
    nonempty = solve_2d(inst, allow_empty=False)
    assert nonempty.weight == -1 and nonempty.chosen == (0,)


def test_collinear_instance():
    inst = make_instance(2, [((0, 0), 1), ((1, 0), 1), ((2, 0), 1), ((3, 0), -1)])
    sol = solve_2d(inst)
    assert sol.weight == 3
    assert_valid_witness(inst, sol)


def test_duplicate_x_coordinates_need_shear():
    inst = make_instance(2, [((0, 0), 1), ((0, 2), 1), ((1, 1), -1), ((2, 0), 1), ((2, 2), 1)])
    sol = solve_2d(inst)
    assert sol.weight == solve_bruteforce(inst).weight
    assert_valid_witness(inst, sol)


def test_matches_oracle_random():
    rng = random.Random(6)
    for _ in range(80):
        inst = random_instance(rng, rng.randint(1, 10), 2, -5, 5)
        sol = solve_2d(inst)
        ref = solve_bruteforce(inst)
        assert sol.weight == ref.weight
        assert_valid_witness(inst, sol)


def test_matches_oracle_rational_weights():
    rng = random.Random(26)
    for _ in range(30):
        n = rng.randint(1, 8)
        rows = []
        seen = set()
        while len(rows) < n:
            p = (rng.randint(0, 12), rng.randint(0, 12))
            if p in seen:
                continue
            seen.add(p)
            w = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
            rows.append((p, w))
        inst = make_instance(2, rows)
        assert solve_2d(inst).weight == solve_bruteforce(inst).weight


def test_degenerate_grids_match_oracle():
    # tiny grids force collinear triples, shared x, and on-segment points
    rng = random.Random(37)
    for _ in range(120):
        n = rng.randint(1, 8)
        seen = set()
        rows = []
        while len(rows) < n:
            p = (rng.randint(0, 2), rng.randint(0, 3))
            if p in seen:
                continue
            seen.add(p)
            rows.append((p, rng.choice([-2, -1, 1, 2])))
        inst = make_instance(2, rows)
        sol = solve_2d(inst)
        assert sol.weight == solve_bruteforce(inst).weight
        assert_valid_witness(inst, sol)


def test_vertical_collinear_points():
    inst = make_instance(2, [((0, 0), 1), ((0, 1), 1), ((0, 2), 1), ((0, 3), -1)])
    sol = solve_2d(inst)
    assert sol.weight == 3
    assert_valid_witness(inst, sol)


def test_affine_shear_invariance():
    rng = random.Random(19)
    for _ in range(25):
        inst = random_instance(rng, rng.randint(1, 9), 2, -4, 4)
        c = rng.randint(1, 5)
        sheared = Instance(
            2,
            tuple(
                WeightedPoint((wp.point[0] + c * wp.point[1], wp.point[1]), wp.weight)
                for wp in inst.points
            ),
        )
        assert solve_2d(inst).weight == solve_2d(sheared).weight


def test_wrong_dimension_rejected():
    with pytest.raises(ValueError):
        solve_2d(make_instance(1, [((0,), 1)]))


def test_empty_instance():
    inst = make_instance(2, [])
    assert solve_2d(inst).weight == 0
    with pytest.raises(ValueError):
        solve_2d(inst, allow_empty=False)


@pytest.mark.parametrize(
    "points",
    [
        # Duplicate points, also on a rational coordinate and among others.
        [WeightedPoint((Fraction(0), Fraction(0)), Fraction(1))] * 2,
        [
            WeightedPoint((Fraction(1, 3), Fraction(2)), Fraction(1)),
            WeightedPoint((Fraction(5), Fraction(-1, 7)), Fraction(-2)),
            WeightedPoint((Fraction(2, 6), Fraction(4, 2)), Fraction(3)),
        ],
        # A zero weight, alone and among others.
        [WeightedPoint((Fraction(0), Fraction(0)), Fraction(0))],
        [
            WeightedPoint((Fraction(0), Fraction(0)), Fraction(1)),
            WeightedPoint((Fraction(1, 2), Fraction(1)), Fraction(0)),
        ],
    ],
)
def test_non_canonical_instance_refused(points):
    inst = Instance(2, tuple(points))
    for refuse in (build_context, solve_2d, solve_bruteforce):
        with pytest.raises(ValueError, match=r"^instance is not canonical; run canonicalize\(\) first$"):
            refuse(inst)


def test_distinct_points_on_close_rationals_accepted():
    tiny = Fraction(1, 2**60)
    inst = make_instance(2, [((0, 0), 1), ((tiny, 0), 1), ((0, tiny), -1), ((tiny, tiny), 2)])
    assert len(build_context(inst).xs) == 4
    assert solve_2d(inst).weight == solve_bruteforce(inst).weight == 4


SMALL = st.integers(-4, 4)


@st.composite
def degenerate_planar_instances(draw):
    """Shared x, a collinear run through an anchor on both sides of it, an
    equal-slope pair of segments, rational coordinates (one scale per axis)
    and mixed-sign rational weights."""
    xs = draw(st.lists(SMALL, min_size=1, max_size=3, unique=True))
    pts = set(draw(st.lists(st.tuples(st.sampled_from(xs), SMALL), max_size=5)))
    (ax, ay), dx, dy = draw(st.tuples(SMALL, SMALL)), draw(st.integers(1, 3)), draw(SMALL)
    pts |= {(ax + t * dx, ay + t * dy) for t in draw(st.sets(st.integers(-2, 2), max_size=5))}
    (px, py), (qx, qy), (sx, sy) = (draw(st.tuples(SMALL, SMALL)) for _ in range(3))
    pts |= {(px, py), (qx, qy), (px + sx, py + sy), (qx + sx, qy + sy)}
    scale_x, scale_y = (Fraction(1, draw(st.sampled_from([1, 2, 3, 2**40]))) for _ in range(2))
    weight = st.builds(
        Fraction,
        st.integers(-5, 5).filter(bool),
        st.sampled_from([1, 1, 2, 3, 2**60]),
    )
    rows = [((x * scale_x, y * scale_y), draw(weight)) for x, y in sorted(pts)]
    return make_instance(2, draw(st.permutations(rows)))


@settings(derandomize=True, database=None, max_examples=180, deadline=None)
@given(degenerate_planar_instances())
def test_precompute_matches_brute_force_on_drawn_instances(inst):
    ctx = build_context(inst)
    ew = precompute_edge_weights(ctx)
    assert ew == brute_edge_weights(ctx)
    assert ordinals(build_angular_lists(ctx, ew)) == cmp_angular_lists(ctx)
    assert_chain_rows_match_direct_search(ctx)
