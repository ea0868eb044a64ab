"""Acceptance suite: one test per criterion, each printing a pass line.

Solution corpora are computed once in session fixtures and shared; the
final criterion re-validates every witness those suites produced.
"""

import itertools
import random
import time
from math import lcm

import pytest

from mwcp.generators import gen_ngon_family, gen_uniform
from mwcp.geometry import convex_hull_2d, point_in_convex_polygon, scale_to_integers
from mwcp.oracle import containment_layers, solve_bruteforce
from mwcp.reduction import (
    decode_solution,
    independence_number,
    is_independent_set,
    make_graph,
    reduce_is_to_mwcp,
    verify_edge_gadget,
)
from mwcp.solver1d import solve_1d
from mwcp.solver2d import (
    build_angular_lists,
    build_context,
    precompute_edge_weights,
)
from mwcp.cli import run_bench
from support import (
    assert_valid_witness,
    compute_C_tables,
    compute_V_tables,
    naive_C_tables,
    naive_V_tables,
    segments_intersect,
)

MASTER_SEED = 20240901


def _report(criterion, detail):
    print(f"[acceptance] criterion {criterion}: PASS - {detail}")


def nonisomorphic_graphs(n):
    """All simple graphs on n labeled vertices, one representative per
    isomorphism class, by orbit enumeration over edge-set bitmasks."""
    pairs = list(itertools.combinations(range(n), 2))
    index = {e: i for i, e in enumerate(pairs)}
    remaps = []
    for perm in itertools.permutations(range(n)):
        table = [0] * len(pairs)
        for i, (u, v) in enumerate(pairs):
            pu, pv = perm[u], perm[v]
            table[i] = index[(min(pu, pv), max(pu, pv))]
        remaps.append(table)
    seen = bytearray(1 << len(pairs))
    reps = []
    for mask in range(1 << len(pairs)):
        if seen[mask]:
            continue
        reps.append(mask)
        for table in remaps:
            m2 = 0
            rest = mask
            while rest:
                b = rest & -rest
                m2 |= 1 << table[b.bit_length() - 1]
                rest ^= b
            seen[m2] = 1
    return [
        make_graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
        for mask in reps
    ]


@pytest.fixture(scope="session")
def corpus_2d():
    from mwcp.solver2d import solve_2d

    rng = random.Random(MASTER_SEED)
    solved = []
    for case in range(500):
        n = rng.randint(1, 12)
        inst = gen_uniform(n, 2, seed=rng.randrange(2**30), weight_range=(-9, 9))
        solved.append((inst, solve_2d(inst), solve_bruteforce(inst)))
    return solved


@pytest.fixture(scope="session")
def corpus_1d():
    rng = random.Random(MASTER_SEED + 1)
    solved = []
    for case in range(500):
        n = rng.randint(1, 15)
        inst = gen_uniform(n, 1, seed=rng.randrange(2**30), weight_range=(-9, 9))
        solved.append((inst, solve_1d(inst), solve_bruteforce(inst)))
    return solved


@pytest.fixture(scope="session")
def corpus_reduction():
    graphs = []
    for n in range(1, 7):
        graphs.extend(nonisomorphic_graphs(n))
    solved = []
    for g in graphs:
        inst = reduce_is_to_mwcp(g)
        solved.append((g, inst, solve_bruteforce(inst)))
    return solved


@pytest.fixture(scope="session")
def corpus_ngon():
    from mwcp.solver2d import solve_2d

    solved = []
    for n in range(3, 51):
        inst = gen_ngon_family(n)
        solved.append((n, inst, solve_2d(inst)))
    return solved


def test_criterion_1_oracle_equivalence_2d(corpus_2d):
    start = time.perf_counter()
    for inst, dp, oracle in corpus_2d:
        assert dp.weight == oracle.weight
    elapsed = time.perf_counter() - start
    _report(1, f"solve_2d == oracle on {len(corpus_2d)} random 2D instances "
               f"(exact weight equality; compare pass {elapsed:.1f}s)")


def test_criterion_2_oracle_equivalence_1d(corpus_1d):
    for inst, dp, oracle in corpus_1d:
        assert dp.weight == oracle.weight
    _report(2, f"solve_1d == oracle on {len(corpus_1d)} random 1D instances")


def test_criterion_3_recurrence_isolation():
    rng = random.Random(MASTER_SEED + 2)
    instances = 0
    entries = 0
    while instances < 100:
        n = rng.randint(1, 9)
        # alternate mixed-sign and all-positive draws so dense tables appear
        weights = (-9, 9) if instances % 2 else (1, 9)
        inst = gen_uniform(n, 2, seed=rng.randrange(2**30), weight_range=weights)
        ctx = build_context(inst)
        ew = precompute_edge_weights(ctx)
        lists = build_angular_lists(ctx, ew)
        fast_c = compute_C_tables(ctx, ew, lists)
        fast_v = compute_V_tables(ctx, ew, lists)
        slow_c = naive_C_tables(ctx, ew)
        slow_v = naive_V_tables(ctx, ew)
        assert fast_c == slow_c
        assert fast_v == slow_v
        instances += 1
        entries += len(fast_c) + len(fast_v)
    _report(3, f"fc-accelerated tables match the quartic recurrence entry-for-entry "
               f"on {instances} instances ({entries} entries)")


def test_criterion_4_strict_reduction_roundtrip(corpus_reduction):
    by_n = {}
    for g, inst, sol in corpus_reduction:
        by_n[g.n_vertices] = by_n.get(g.n_vertices, 0) + 1
        alpha = independence_number(g)
        assert sol.weight == alpha
        assert len(inst.points) == g.n_vertices + 2 * len(g.edges)
        decoded = decode_solution(inst, sol)
        assert is_independent_set(g, decoded)
        assert len(decoded) == alpha
    # graph counts per vertex count, one per isomorphism class
    assert by_n == {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156}
    _report(4, f"oracle(reduce(G)) == alpha(G) with valid decode on all "
               f"{len(corpus_reduction)} graphs on <= 6 vertices up to isomorphism")


def test_reduction_weight_identity_on_every_subset(corpus_reduction):
    # The gap-preserving identity behind the reduction: the hull of any
    # vertex subset C holds exactly C's vertex points and two gadget points
    # per edge inside C, so it weighs |C| - 2|E(C)|.
    subsets = 0
    for g, inst, _ in corpus_reduction:
        vertex_index = inst.meta["vertex_point_index"]
        coords = scale_to_integers([wp.point for wp in inst.points])
        vertex_bits = sum(1 << i for i in vertex_index)
        for layer in containment_layers(coords, vertex_index):
            for mask, contained in layer.items():
                chosen = [v for v in range(g.n_vertices) if mask >> v & 1]
                assert contained & vertex_bits == sum(1 << vertex_index[v] for v in chosen)
                inner = sum(1 for u, v in g.edges if mask >> u & mask >> v & 1)
                weight = sum(inst.points[i].weight for i in range(len(inst.points))
                              if contained >> i & 1)
                assert weight == len(chosen) - 2 * inner, (g, chosen)
                subsets += 1
    assert subsets == sum(2 ** g.n_vertices for g, _, _ in corpus_reduction)


def test_criterion_5_gadget_iff_property(corpus_reduction):
    named = {
        "K3": make_graph(3, [(0, 1), (1, 2), (0, 2)]),
        "C4": make_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
        "C5": make_graph(5, [(i, (i + 1) % 5) for i in range(5)]),
        "K4": make_graph(4, list(itertools.combinations(range(4), 2))),
    }
    rng = random.Random(MASTER_SEED + 3)
    graphs = list(named.values())
    while len(graphs) < len(named) + 20:
        n = rng.randint(2, 7)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        graphs.append(make_graph(n, edges))
    # Every graph on at most 6 vertices up to isomorphism, then K8 and
    # seeded graphs on 7 and 8 vertices, up to the verifier's bound.
    graphs += [g for g, _, _ in corpus_reduction]
    graphs.append(make_graph(8, list(itertools.combinations(range(8), 2))))
    for n in [7] * 8 + [8] * 8:
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        graphs.append(make_graph(n, edges))
    checks = 0
    for g in graphs:
        report = verify_edge_gadget(reduce_is_to_mwcp(g))
        assert report.ok, f"gadget violations on {g}: {report.violations[:3]}"
        checks += report.memberships_checked
    _report(5, f"containment iff both endpoints chosen: zero violations over "
               f"{len(graphs)} graphs, {checks} membership tests")


def test_criterion_6_ngon_family(corpus_ngon):
    for n, inst, sol in corpus_ngon:
        assert sol.weight == n, f"ngon {n}: got {sol.weight}"
        # Scaled by one common denominator (a similarity keeps every
        # predicate below), so the checks run on ints.
        den = lcm(*(c.denominator for wp in inst.points for c in wp.point))
        scaled = [(int(x * den), int(y * den)) for x, y in (wp.point for wp in inst.points)]
        pos = [p for p, wp in zip(scaled, inst.points) if wp.weight == 1]
        neg = [p for p, wp in zip(scaled, inst.points) if wp.weight == -1]
        hull = convex_hull_2d(pos)
        assert len(hull) == n
        for p in neg:
            assert not point_in_convex_polygon(p, hull)
        edges = [(hull[i - 1], hull[i]) for i in range(n)]
        for i in range(n):
            a, b = neg[i], neg[(i + 1) % n]
            assert any(segments_intersect(a, b, e1, e2) for e1, e2 in edges)
    _report(6, f"solve_2d weight == n on the adversarial family for n in 3..50, "
               f"construction properties verified")


def test_criterion_7_complexity_scaling():
    sizes = [100, 200, 400]
    start = time.perf_counter()
    # The fastest of five solves of each instance: one sample moves the
    # slope by about 0.2 on a shared host.
    rows, slope = run_bench("dp2d", sizes, seed=0, repeats=1, samples=5)
    total = time.perf_counter() - start
    t400 = max(sec for _, n, _, _, sec in rows if n == 400)
    assert 2.5 <= slope <= 3.5, f"log-log slope {slope:.3f} outside [2.5, 3.5]"
    assert t400 < 600, f"n=400 took {t400:.1f}s"
    _report(7, f"dp2d log-log slope {slope:.3f} over n={sizes}, "
               f"n=400 in {t400:.2f}s (bench total {total:.1f}s)")


def test_criterion_8_witness_validity(corpus_2d, corpus_1d, corpus_reduction, corpus_ngon):
    checked = 0
    for inst, dp, oracle in corpus_2d:
        assert_valid_witness(inst, dp)
        assert_valid_witness(inst, oracle)
        checked += 2
    for inst, dp, oracle in corpus_1d:
        assert_valid_witness(inst, dp)
        assert_valid_witness(inst, oracle)
        checked += 2
    for g, inst, sol in corpus_reduction:
        assert_valid_witness(inst, sol)
        checked += 1
    for n, inst, sol in corpus_ngon:
        assert_valid_witness(inst, sol)
        checked += 1
    _report(8, f"hull convexity, weight reproduction, and maximality verified "
               f"on {checked} witnesses across suites 1-6")
