import random
from fractions import Fraction

import pytest

from mwcp.model import (
    Instance,
    WeightedPoint,
    evaluate,
    make_instance,
    prune_to_maximal,
)
from mwcp.oracle import solve_bruteforce
from mwcp.solver2d import (
    best_weight_from_tables,
    build_angular_lists,
    build_context,
    compute_C_tables,
    compute_first_compatible,
    compute_V_tables,
    hull_weight_from_tables,
    naive_C_tables,
    naive_V_tables,
    precompute_edge_weights,
    prune_with_tables,
    solve_2d,
)
from support import assert_valid_witness, degenerate_instance_2d, random_instance

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


def test_angular_lists_collinear_middle():
    ctx = ctx_for([((0, 0), 1), ((1, 0), 1), ((2, 0), 1)])
    lists = build_angular_lists(ctx)
    assert lists.left[1] == [0]
    assert lists.right[1] == [2]


def test_angular_lists_clockwise_top_to_bottom():
    # right points at +45, 0, -45 degrees around the origin point
    ctx = ctx_for([((0, 0), 1), ((1, 1), 1), ((2, 0), 1), ((1, -1), 1)])
    lists = build_angular_lists(ctx)
    j = 0  # ordinal of (0,0)
    pts = [ctx.instance.points[ctx.orig[ctx.cand[c]]].point for c in lists.right[j]]
    assert pts == [(1, 1), (2, 0), (1, -1)]


def test_angular_lists_sizes_and_order():
    rng = random.Random(8)
    for _ in range(100):
        inst = random_instance(rng, rng.randint(2, 9), 2, 1, 3)
        ctx = build_context(inst)
        lists = build_angular_lists(ctx)
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
        lists = build_angular_lists(ctx)
        fc_top, fc_bot = compute_first_compatible(ctx, lists)
        for rows in (fc_top, fc_bot):
            for row in rows:
                assert all(a <= b for a, b in zip(row, row[1:]))


def test_c_base_two_points():
    ctx = ctx_for([((0, 0), 2), ((3, 1), 4), ((1, -2), -1)])
    ew = precompute_edge_weights(ctx)
    lists = build_angular_lists(ctx)
    ctab = compute_C_tables(ctx, ew, lists)
    # candidates: (0,0)=0, (3,1)=1; the negative point only feeds edge weights
    assert ctab[(0, 1, 1)] == ew.top[0][1] + 2 + 4


def test_c_base_infeasible_is_none():
    # middle candidate strictly below the chord: C[i, j, k] = -inf
    ctx = ctx_for([((0, 2), 1), ((1, 0), 1), ((2, 2), 1)])
    ew = precompute_edge_weights(ctx)
    lists = build_angular_lists(ctx)
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
        lists = build_angular_lists(ctx)
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
        lists = build_angular_lists(ctx)
        w = best_weight_from_tables(
            ctx, naive_C_tables(ctx, ew), naive_V_tables(ctx, ew)
        )
        sol = solve_2d(inst, allow_empty=False)
        assert sol.weight == w


def test_hull_weight_from_tables_matches_evaluate():
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
            assert hull_weight_from_tables(ctx, ew, seq) == expect


def test_hull_weight_from_tables_collinear_set():
    # three candidates on one line with a negative point on the open segment
    # and one just below it
    inst = make_instance(
        2, [((0, 0), 2), ((2, 2), 1), ((4, 4), 3), ((1, 1), -1), ((3, 2), -5)]
    )
    ctx = build_context(inst)
    ew = precompute_edge_weights(ctx)
    assert hull_weight_from_tables(ctx, ew, [0, 1, 2]) == 5
    assert hull_weight_from_tables(ctx, ew, [0, 2]) == 5
    assert hull_weight_from_tables(ctx, ew, [1]) == 1


def test_prune_with_tables_matches_model_prune():
    rng = random.Random(61)
    for t in range(150):
        inst = degenerate_instance_2d(rng, DEGENERACIES[t % 3], rng.randint(1, 10))
        ctx = build_context(inst)
        m = len(ctx.cand)
        ew = precompute_edge_weights(ctx)
        subsets = [list(range(m))] + [
            [c for c in range(m) if rng.random() < 0.6] for _ in range(3)
        ]
        for seq in subsets:
            chosen = {ctx.orig[ctx.cand[c]] for c in seq}
            kept, w = prune_with_tables(ctx, ew, seq)
            assert kept == prune_to_maximal(inst, chosen)
            assert w == evaluate(inst, kept).weight * ctx.weight_scale
        for allow_empty in (True, False):
            sol = solve_2d(inst, allow_empty=allow_empty)
            assert sol.weight == solve_bruteforce(inst, allow_empty=allow_empty).weight
            if sol.weight > 0:
                assert prune_to_maximal(inst, sol.chosen) == sol.chosen


def test_witness_checks_raise(monkeypatch):
    import mwcp.solver2d as solver2d

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
