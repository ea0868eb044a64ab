import copy
import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from mwcp.geometry import point_in_hull
from mwcp.model import Solution, evaluate, parse_instance, write_instance
from mwcp.oracle import solve_bruteforce
from mwcp.reduction import (
    GraphParseError,
    cyclic_embedding,
    decode_solution,
    independence_number,
    is_independent_set,
    make_graph,
    parse_graph,
    reduce_is_to_mwcp,
    verify_edge_gadget,
    write_graph,
)


def complete(n):
    return make_graph(n, list(itertools.combinations(range(n), 2)))


def cycle(n):
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return make_graph(n, [(i, i + 1) for i in range(n - 1)])


def random_graph(rng, n, p=0.5):
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return make_graph(n, edges)


def test_graph_normalization():
    g = make_graph(4, [(2, 1), (1, 2), (0, 3)])
    assert g.edges == ((0, 3), (1, 2))
    with pytest.raises(ValueError):
        make_graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        make_graph(3, [(0, 5)])


def test_graph_file_roundtrip():
    g = cycle(5)
    text = write_graph(g)
    assert parse_graph(text) == g
    with pytest.raises(GraphParseError, match="line 1"):
        parse_graph("oops\n")
    with pytest.raises(GraphParseError):
        parse_graph("3 2\n0 1\n")  # missing an edge line


def test_graph_parse_refuses_non_ascii_digits():
    # An Arabic-Indic three in the header, a fullwidth two in an edge.
    with pytest.raises(GraphParseError, match="line 1: expected header"):
        parse_graph("\u0663 1\n0 \uff12\n")
    with pytest.raises(GraphParseError, match="line 3: expected edge"):
        parse_graph("3 2\n0 1\n0 \uff12\n")
    # A superscript two passes str.isdigit but not int().
    with pytest.raises(GraphParseError, match="line 2: expected header"):
        parse_graph("# c\n\u00b2 0\n")


def test_cyclic_embedding_values():
    assert cyclic_embedding(1) == [(1, 1, 1, 1)]
    assert cyclic_embedding(3) == [
        (1, 1, 1, 1),
        (2, 4, 8, 16),
        (3, 9, 27, 81),
    ]


def test_cyclic_embedding_all_hull_vertices():
    for n in range(1, 9):
        pts = cyclic_embedding(n)
        for i in range(n):
            others = [p for j, p in enumerate(pts) if j != i]
            if others:
                assert point_in_hull(pts[i], others) is False


def test_embedding_gadget_positions():
    inst = reduce_is_to_mwcp(path(3))
    verts = cyclic_embedding(3)
    assert inst.meta["gadget_positions"] == ["1/3", "2/3"]
    for (u, v), (g1, g2) in inst.meta["edge_gadget_index"]:
        a, b = verts[u], verts[v]
        for g, t in ((g1, Fraction(1, 3)), (g2, Fraction(2, 3))):
            assert inst.points[g].point == tuple(ac + (bc - ac) * t for ac, bc in zip(a, b))
            assert inst.points[g].weight == -1


def test_reduce_point_counts_and_weights():
    g = cycle(4)
    inst = reduce_is_to_mwcp(g)
    assert inst.dimension == 4
    assert len(inst.points) == 4 + 2 * 4
    assert sum(1 for wp in inst.points if wp.weight == 1) == 4
    assert sum(1 for wp in inst.points if wp.weight == -1) == 8


def test_reduce_examples_match_alpha():
    cases = [
        (make_graph(4, []), 4),
        (complete(3), 1),
        (path(3), 2),
    ]
    for g, alpha in cases:
        inst = reduce_is_to_mwcp(g)
        assert independence_number(g) == alpha
        assert solve_bruteforce(inst).weight == alpha


def test_reduction_instance_roundtrips_through_files():
    inst = reduce_is_to_mwcp(cycle(4))
    back = parse_instance(write_instance(inst))
    assert back.points == inst.points
    assert back.meta["graph"] == inst.meta["graph"]
    # meta survives well enough to decode and verify
    sol = solve_bruteforce(back)
    assert decode_solution(back, sol) is not None


def test_decode_solution():
    g = make_graph(4, [])
    inst = reduce_is_to_mwcp(g)
    sol = solve_bruteforce(inst)
    assert decode_solution(inst, sol) == (0, 1, 2, 3)

    k3 = complete(3)
    inst3 = reduce_is_to_mwcp(k3)
    sol3 = solve_bruteforce(inst3)
    decoded = decode_solution(inst3, sol3)
    assert len(decoded) == 1

    empty = Solution((), None, (), Fraction(0))
    assert decode_solution(inst3, empty) == ()


def test_decode_refuses_non_maximal():
    g = path(3)  # vertices 0-1-2; {0, 2} is the optimum
    inst = reduce_is_to_mwcp(g)
    bogus = evaluate(inst, [0, 2, 1], allow_nonpositive=True)
    # adjacent vertices enclose gadget points, so some vertex is dominated
    with pytest.raises(ValueError, match="not maximal"):
        decode_solution(inst, bogus)


def test_decode_rejects_wrong_weight():
    # Both claims pass the maximality check, so only the output checks
    # (which raise, and so hold under python -O) can refuse them.
    inst = reduce_is_to_mwcp(make_graph(4, []))
    sol = solve_bruteforce(inst)
    heavy = dataclasses.replace(sol, weight=sol.weight + 1)
    with pytest.raises(ValueError, match="solution weighs 5"):
        decode_solution(inst, heavy)
    inst3 = reduce_is_to_mwcp(path(3))
    adjacent = dataclasses.replace(evaluate(inst3, [0, 1, 2]), weight=Fraction(100))
    with pytest.raises(ValueError, match="not independent"):
        decode_solution(inst3, adjacent)


def test_decode_independent_and_sized():
    rng = random.Random(33)
    for _ in range(15):
        g = random_graph(rng, rng.randint(1, 6))
        inst = reduce_is_to_mwcp(g)
        sol = solve_bruteforce(inst)
        decoded = decode_solution(inst, sol)
        assert is_independent_set(g, decoded)
        assert len(decoded) == sol.weight == independence_number(g)


def test_alpha_equality_on_seven_vertices():
    rng = random.Random(44)
    graphs = [cycle(7), path(7), complete(7)]
    graphs += [random_graph(rng, 7) for _ in range(3)]
    for g in graphs:
        inst = reduce_is_to_mwcp(g)
        sol = solve_bruteforce(inst)
        assert sol.weight == independence_number(g)
        assert len(decode_solution(inst, sol)) == sol.weight


def test_gadget_containment_on_triangle():
    k3 = complete(3)
    inst = reduce_is_to_mwcp(k3)
    _, _, edge_gadgets = (
        inst.meta["graph"],
        inst.meta["vertex_point_index"],
        [((e[0][0], e[0][1]), tuple(e[1])) for e in inst.meta["edge_gadget_index"]],
    )
    pts01 = [inst.points[0].point, inst.points[1].point]
    for (u, v), gadget in edge_gadgets:
        for gi in gadget:
            inside = point_in_hull(inst.points[gi].point, pts01)
            assert inside == ((u, v) == (0, 1))


def test_gadget_single_vertex_hull_is_clean():
    inst = reduce_is_to_mwcp(complete(3))
    for v in range(3):
        pts = [inst.points[v].point]
        for wp in inst.points[3:]:
            assert point_in_hull(wp.point, pts) is False


def test_verify_edge_gadget_c4():
    report = verify_edge_gadget(reduce_is_to_mwcp(cycle(4)))
    assert report.ok
    assert report.subsets_checked == 16
    assert report.memberships_checked == 16 * 8


def test_verify_edge_gadget_guard():
    with pytest.raises(ValueError, match="limited"):
        verify_edge_gadget(reduce_is_to_mwcp(cycle(9)))
    with pytest.raises(ValueError, match="reduction"):
        verify_edge_gadget(parse_instance("2 1\n0 0 1\n"))


def bad_index_instances():
    """A reduced one-edge 3-vertex graph with one meta index out of range or not an int."""
    base = reduce_is_to_mwcp(make_graph(3, [(0, 1)]))
    out = []
    for key, where, value in [
        ("edge_gadget_index", (0, 1, 0), 9),
        ("edge_gadget_index", (0, 1, 1), -1),
        ("edge_gadget_index", (0, 0, 1), 3),
        ("edge_gadget_index", (0, 0, 0), -2),
        ("edge_gadget_index", (0, 1, 0), "3"),
        ("vertex_point_index", (2,), 5),
        ("vertex_point_index", (0,), -5),
        ("vertex_point_index", (1,), True),
        ("graph", ("edges", 0, 1), 2.0),
        ("graph", ("edges", 0, 0), 3),
    ]:
        meta = copy.deepcopy(base.meta)
        *path, last = where
        target = meta[key]
        for step in path:
            target = target[step]
        target[last] = value
        out.append(dataclasses.replace(base, meta=meta))
    short = copy.deepcopy(base.meta)
    short["vertex_point_index"].pop()
    out.append(dataclasses.replace(base, meta=short))
    return base, out


def test_reduction_maps_refuse_bad_indices():
    base, bad = bad_index_instances()
    assert verify_edge_gadget(base).ok
    sol = solve_bruteforce(base)
    assert decode_solution(base, sol) == (0, 2)
    for inst in bad:
        with pytest.raises(ValueError, match="independent-set reduction"):
            verify_edge_gadget(inst)
        with pytest.raises(ValueError, match="independent-set reduction"):
            decode_solution(inst, sol)


def test_independence_number_small_cases():
    assert independence_number(complete(5)) == 1
    assert independence_number(cycle(5)) == 2
    assert independence_number(cycle(6)) == 3
    assert independence_number(path(4)) == 2
    assert independence_number(make_graph(3, [])) == 3
