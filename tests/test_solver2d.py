import random
from fractions import Fraction

import pytest

from mwcp import solver2d
from mwcp.generators import gen_ngon_family, gen_uniform
from mwcp.geometry import scale_to_integers, shear_normalize
from mwcp.model import (
    Instance,
    WeightedPoint,
    evaluate,
    make_instance,
    prune_to_maximal,
)
from mwcp.oracle import solve_bruteforce
from mwcp.solver2d import (
    _chains,
    _cycle_weight,
    build_angular_lists,
    build_context,
    compute_first_compatible,
    precompute_edge_weights,
    prune_with_tables,
    solve_2d,
)
from support import (
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
    orientation,
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
    # candidates in x order: (0,0), (1,-1), (2,0); edge between ordinals 0 and 2
    assert ew.top[0][2] == 5
    assert ew.bot[0][2] == 5


def test_edge_weight_point_on_segment():
    ctx = ctx_for([((0, 0), 1), ((2, 0), 1), ((1, 0), 3)])
    ew = precompute_edge_weights(ctx)
    assert ew.top[0][2] == 3
    assert ew.bot[0][2] == 0


def test_edge_weight_no_intermediate():
    ctx = ctx_for([((0, 0), 1), ((2, 0), 1)])
    ew = precompute_edge_weights(ctx)
    assert ew.top[0][1] == 0
    assert ew.bot[0][1] == 0


def assert_shear_matches_rational(rng, inst):
    """The integer view has the order and orientations of shear_normalize's."""
    ctx = build_context(inst)
    pts = [wp.point for wp in inst.points]
    sheared, k = shear_normalize(pts)
    assert (ctx.shear_k != 1) == (k != 1)
    assert ctx.orig == sorted(range(len(pts)), key=lambda i: sheared[i][0])
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
    """n > len(xs) distinct grid points, at least one on every x, so two share an x."""
    cells = {(x, rng.choice(ys)) for x in xs}
    while len(cells) < n:
        cells.add((rng.choice(xs), rng.choice(ys)))
    return make_instance(2, [(p, rng.choice([-2, -1, 1, 3])) for p in cells])


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
        keys = [slope_key(ctx, a, b) for a, b in order]
        for (p, q), (kp, kq) in zip(zip(order, order[1:]), zip(keys, keys[1:])):
            assert kp <= kq
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
        lists = build_angular_lists(ctx, precompute_edge_weights(ctx).nkey)
        assert (lists.left, lists.right) == cmp_angular_lists(ctx)
        assert lists.left_ccw == [row[::-1] for row in lists.left]
        assert lists.right_ccw == [row[::-1] for row in lists.right]
        cand = ctx.cand
        for j in range(len(cand)):
            assert lists.left_key[j] == [-slope_key(ctx, cand[i], cand[j]) for i in lists.left[j]]
            assert lists.right_key[j] == [-slope_key(ctx, cand[j], cand[r]) for r in lists.right[j]]


def test_angular_lists_from_shared_key_rows():
    rng = random.Random(75)
    instances = [
        degenerate_instance_2d(rng, DEGENERACIES[t % 3], rng.randint(1, 12))
        for t in range(90)
    ]
    instances += [gen_ngon_family(n) for n in range(24, 33)]
    for inst in instances:
        ctx = build_context(inst)
        rows = direct_key_rows(ctx)
        shared = precompute_edge_weights(ctx).nkey
        assert shared == rows
        assert build_angular_lists(ctx, shared) == build_angular_lists(ctx, rows)


def test_angular_lists_collinear_middle():
    ctx = ctx_for([((0, 0), 1), ((1, 0), 1), ((2, 0), 1)])
    lists = build_angular_lists(ctx, precompute_edge_weights(ctx).nkey)
    assert lists.left[1] == [0]
    assert lists.right[1] == [2]


def test_angular_lists_clockwise_top_to_bottom():
    # right points at +45, 0, -45 degrees around the origin point
    ctx = ctx_for([((0, 0), 1), ((1, 1), 1), ((2, 0), 1), ((1, -1), 1)])
    lists = build_angular_lists(ctx, precompute_edge_weights(ctx).nkey)
    j = 0  # ordinal of (0,0)
    pts = [ctx.instance.points[ctx.orig[ctx.cand[c]]].point for c in lists.right[j]]
    assert pts == [(1, 1), (2, 0), (1, -1)]


def test_angular_lists_sizes_and_order():
    rng = random.Random(8)
    for _ in range(100):
        inst = random_instance(rng, rng.randint(2, 9), 2, 1, 3)
        ctx = build_context(inst)
        lists = build_angular_lists(ctx, precompute_edge_weights(ctx).nkey)
        m = len(ctx.cand)
        xs, ys, cand = ctx.xs, ctx.ys, ctx.cand
        for j in range(m):
            assert len(lists.left[j]) == j
            assert len(lists.right[j]) == m - 1 - j
            for seq in (lists.left[j], lists.right[j]):
                for a, b in zip(seq, seq[1:]):
                    ua = (xs[cand[a]] - xs[cand[j]], ys[cand[a]] - ys[cand[j]])
                    ub = (xs[cand[b]] - xs[cand[j]], ys[cand[b]] - ys[cand[j]])
                    # clockwise: cross2(u_prev, u_next) <= 0
                    assert ua[0] * ub[1] - ua[1] * ub[0] <= 0


def test_first_compatible_monotone():
    rng = random.Random(21)
    for _ in range(60):
        inst = random_instance(rng, rng.randint(2, 9), 2, 1, 3)
        ctx = build_context(inst)
        lists = build_angular_lists(ctx, precompute_edge_weights(ctx).nkey)
        fc_top, fc_bot = compute_first_compatible(ctx, lists)
        for rows in (fc_top, fc_bot):
            for row in rows:
                assert all(a <= b for a, b in zip(row, row[1:]))


def direct_first_compatible(ctx, lefts, rights, sign):
    """The pointer tables by direct search: for each (left[j][t], j), the
    first position in right[j] whose turn has ``sign`` or is collinear."""
    xs, ys, cand = ctx.xs, ctx.ys, ctx.cand

    def ok(i, j, r):
        pi, pj, pr = cand[i], cand[j], cand[r]
        v = (xs[pr] - xs[pi]) * (ys[pj] - ys[pi]) - (ys[pr] - ys[pi]) * (xs[pj] - xs[pi])
        return v * sign >= 0

    return [
        [next((p for p, r in enumerate(rights[j]) if ok(i, j, r)), len(rights[j]))
         for i in lefts[j]]
        for j in range(len(cand))
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
        lists = build_angular_lists(ctx, precompute_edge_weights(ctx).nkey)
        fc_top, fc_bot = compute_first_compatible(ctx, lists)
        assert fc_top == direct_first_compatible(ctx, lists.left, lists.right, 1)
        assert fc_bot == direct_first_compatible(ctx, lists.left_ccw, lists.right_ccw, -1)


def test_chain_rows_match_direct_search():
    # The sweep's rows against the direct pointer search: fc(i, c) from the
    # addresses, and p(i, k), the last position of k's tie group in i's
    # reading list, from the start indices.
    rng = random.Random(24)
    instances = [
        degenerate_instance_2d(rng, DEGENERACIES[t % 3], rng.randint(1, 12))
        for t in range(60)
    ]
    instances += [gen_ngon_family(n) for n in (24, 29)]
    for inst in instances:
        ctx = build_context(inst)
        ew = precompute_edge_weights(ctx)
        lists = build_angular_lists(ctx, ew.nkey)
        chains = _chains(ctx, ew, lists)
        readers = ((lists.left, lists.right, 1), (lists.left_ccw, lists.right_ccw, -1))
        for ch, (lefts, rights, sign) in zip(chains, readers):
            direct = direct_first_compatible(ctx, lefts, rights, sign)
            for c, row in enumerate(lefts):
                for i, f in zip(row, direct[c]):
                    assert ch.addrs[i][ch.order[i].index(c)] == ch.doff[c] + f
            for i, reading in enumerate(rights):
                assert ch.order[i] == reading[::-1]
                for k in reading:
                    p = max(x for x, c in enumerate(reading) if turn_sign(ctx, i, c, k) == 0)
                    assert ch.start[i][k - i - 1] == len(reading) - 1 - p


def test_c_base_two_points():
    ctx = ctx_for([((0, 0), 2), ((3, 1), 4), ((1, -2), -1)])
    ew = precompute_edge_weights(ctx)
    lists = build_angular_lists(ctx, ew.nkey)
    ctab = compute_C_tables(ctx, ew, lists)
    # candidates: (0,0)=0, (3,1)=1; the negative point only feeds edge weights
    assert ctab[(0, 1, 1)] == ew.top[0][1] + 2 + 4


def test_c_base_infeasible_is_none():
    # middle candidate strictly below the chord: C[i, j, k] = -inf
    ctx = ctx_for([((0, 2), 1), ((1, 0), 1), ((2, 2), 1)])
    ew = precompute_edge_weights(ctx)
    lists = build_angular_lists(ctx, ew.nkey)
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
        lists = build_angular_lists(ctx, ew.nkey)
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
        lists = build_angular_lists(ctx, ew.nkey)
        w = best_weight_from_tables(
            ctx, naive_C_tables(ctx, ew), naive_V_tables(ctx, ew)
        )
        sol = solve_2d(inst, allow_empty=False)
        assert sol.weight == w


def test_cycle_weight_matches_evaluate():
    rng = random.Random(52)
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
            expect = evaluate(inst, chosen).weight * ctx.weight_scale
            assert _cycle_weight(ctx, ew, boundary_cycle(ctx, seq)) == expect


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
            assert w == evaluate(inst, kept).weight * ctx.weight_scale
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
