import itertools
import math
import random
import sys
from fractions import Fraction

import pytest

import mwcp.oracle as oracle
from mwcp import geometry
from mwcp.geometry import _convex_combination_feasible, point_in_hull, scale_to_integers
from mwcp.model import Instance, WeightedPoint, evaluate, make_instance
from mwcp.oracle import OracleSizeError, containment_layers, solve_bruteforce
from mwcp.reduction import make_graph, reduce_is_to_mwcp
from mwcp.solver1d import solve_1d
from support import (
    assert_valid_witness,
    in_hull_reference,
    membership_lps,
    random_instance,
    reference_containment_layers,
)


def test_matches_1d_example():
    inst = make_instance(1, [((0,), -2), ((1,), 3), ((2,), -1), ((3,), 4)])
    sol = solve_bruteforce(inst)
    assert sol.weight == 6
    assert sol.weight == solve_1d(inst).weight


def test_triangle_graph_reduction_weight():
    k3 = make_graph(3, [(0, 1), (1, 2), (0, 2)])
    inst = reduce_is_to_mwcp(k3)
    sol = solve_bruteforce(inst)
    assert sol.weight == 1


def test_empty_positive_set():
    inst = make_instance(2, [((0, 0), -1)])
    sol = solve_bruteforce(inst)
    assert sol.weight == 0 and sol.chosen == ()


def test_size_refusal_names_bound():
    rows = [((i, i * i), 1) for i in range(6)]
    inst = make_instance(2, rows)
    with pytest.raises(OracleSizeError, match="bound of 5"):
        solve_bruteforce(inst, limit=5)
    assert solve_bruteforce(inst, limit=6).weight == 6


def test_monotone_in_added_points():
    rng = random.Random(12)
    for _ in range(40):
        inst = random_instance(rng, rng.randint(1, 7), 2, -4, 4)
        base = solve_bruteforce(inst).weight
        extra = (Fraction(rng.randint(20, 30)), Fraction(rng.randint(0, 30)))
        plus = Instance(2, inst.points + (WeightedPoint(extra, Fraction(3)),))
        minus = Instance(2, inst.points + (WeightedPoint(extra, Fraction(-3)),))
        assert solve_bruteforce(plus).weight >= base
        assert solve_bruteforce(minus).weight <= base


def test_permutation_invariance():
    rng = random.Random(18)
    for _ in range(30):
        inst = random_instance(rng, rng.randint(1, 8), 2, -4, 4)
        perm = list(range(len(inst.points)))
        rng.shuffle(perm)
        shuffled = Instance(2, tuple(inst.points[i] for i in perm))
        assert solve_bruteforce(inst).weight == solve_bruteforce(shuffled).weight


def test_witness_is_maximal():
    rng = random.Random(25)
    for _ in range(40):
        inst = random_instance(rng, rng.randint(1, 8), rng.choice([1, 2, 3]), -4, 4)
        sol = solve_bruteforce(inst)
        assert_valid_witness(inst, sol)


def lattice_instances():
    """Small d = 3 and d = 4 instances rich in affinely dependent subsets."""
    rng = random.Random(31)
    huge = 2**61 - 1
    shapes = {
        # five points on the plane z = x + y, one above it
        "coplanar3": [(0, 0, 0), (2, 0, 2), (0, 2, 2), (1, 1, 2), (2, 2, 4), (1, 0, 5)],
        # four points on one line, two off it
        "collinear3": [(0, 0, 0), (1, 1, 1), (2, 2, 2), (3, 3, 3), (0, 3, 1), (2, 0, 1)],
        # a 0/1 grid: shared coordinates everywhere, a square face, a midpoint
        "grid3": [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 1, 1)],
        "collinear4": [(t, 2 * t, 3 * t, 4 * t) for t in range(4)] + [(1, 0, 0, 0), (0, 1, 0, 0)],
        # six points in the hyperplane x4 = 0 of 4-space
        "flat4": [(0, 0, 0, 0), (2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (1, 1, 0, 0), (1, 0, 1, 0)],
        "rational3": [
            tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(3))
            for _ in range(6)
        ],
        "rational4": [
            tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(4))
            for _ in range(6)
        ],
        # a simplex with points nudged by 1/huge across a face and an edge
        "huge3": [
            (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
            (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3) + Fraction(1, huge)),
            (Fraction(1, 2), Fraction(1, 2) - Fraction(1, huge), 0),
        ],
    }
    for name, pts in shapes.items():
        weights = [rng.choice([-2, -1, 1, 2]) for _ in pts]
        yield name, make_instance(len(pts[0]), list(zip(pts, weights)))


def random_lattice_instances():
    """40 seeded d = 3 and d = 4 instances, n <= 9: 0/1/2 grids, points
    mostly on one hyperplane, and coordinates off the grid by 2^-60."""
    rng = random.Random(61)
    for case in range(40):
        d = 3 + case % 2
        kind = ("grid", "coplanar", "huge")[case % 3]
        n = rng.randint(4, 9)
        pts = set()
        while len(pts) < n:
            if kind == "grid":
                p = tuple(Fraction(rng.randint(0, 2)) for _ in range(d))
            elif kind == "coplanar" and rng.random() < 0.7:
                head = [Fraction(rng.randint(-3, 3)) for _ in range(d - 1)]
                p = (*head, sum(head))
            else:
                p = tuple(
                    Fraction(rng.randint(-3, 3)) + Fraction(rng.randint(-1, 1), 2**60)
                    for _ in range(d)
                )
            pts.add(p)
        rows = [(p, rng.choice([-2, -1, 1, 2])) for p in sorted(pts)]
        rng.shuffle(rows)
        yield f"{kind}{d}-{case}", make_instance(d, rows)


def reduction_instances():
    """16 reductions of seeded G(7, 0.4) graphs."""
    rng = random.Random(62)
    pairs = list(itertools.combinations(range(7), 2))
    for case in range(16):
        edges = [e for e in pairs if rng.random() < 0.4]
        yield f"g{case}", reduce_is_to_mwcp(make_graph(7, edges))


def test_lattice_matches_from_scratch_reference():
    cases = [
        (name, inst, list(range(len(inst.points))))
        for name, inst in itertools.chain(lattice_instances(), random_lattice_instances())
    ]
    cases += [(name, inst, inst.positive_indices()) for name, inst in reduction_instances()]
    assert len(cases) == 8 + 40 + 16
    for name, inst, members in cases:
        coords = scale_to_integers([wp.point for wp in inst.points])
        got = list(containment_layers(coords, members))
        want = list(reference_containment_layers(coords, members))
        assert len(got) == len(want) == len(members) + 1, name
        for layer, ref in zip(got, want):
            assert list(layer.items()) == list(ref.items()), name


def test_evaluate_matches_in_hull_reference_above_2d():
    rng = random.Random(63)
    cases = []
    for name, inst in itertools.chain(lattice_instances(), random_lattice_instances()):
        n = len(inst.points)
        for _ in range(3):
            cases.append((name, inst, rng.sample(range(n), rng.randint(1, min(5, n)))))
    for name, inst in reduction_instances():
        pos = inst.positive_indices()
        cases.append((name, inst, list(solve_bruteforce(inst).chosen)))
        cases.append((name, inst, rng.sample(pos, rng.randint(1, 4))))
    for name, inst, chosen in cases:
        pts = [wp.point for wp in inst.points]
        verts = [pts[i] for i in chosen]
        sol = evaluate(inst, chosen, allow_nonpositive=True)
        want = tuple(i for i, p in enumerate(pts) if in_hull_reference(p, verts))
        assert sol.contained == want, (name, chosen)
        assert sol.weight == sum(inst.points[i].weight for i in want), name


def test_lattice_matches_point_in_hull():
    for name, inst in lattice_instances():
        pts = [wp.point for wp in inst.points]
        members = list(range(len(pts)))
        layers = containment_layers(scale_to_integers(pts), members)
        for size, layer in enumerate(layers):
            assert len(layer) == math.comb(len(members), size)
            for subset, contained in layer.items():
                verts = [pts[j] for j in members if subset >> j & 1]
                got = [i for i in range(len(pts)) if contained >> i & 1]
                if not verts:
                    assert got == [], name
                    continue
                assert got == [i for i, p in enumerate(pts) if point_in_hull(p, verts)], name
                assert got == [i for i, p in enumerate(pts) if in_hull_reference(p, verts)], name


def divmod_pivot(calls, name):
    """``geometry.exact_pivot`` by ``divmod``, failing on any remainder: a
    floor ``//`` would silently round an inexact division."""

    def pivot(rows, pr, c, prev):
        calls[name] = calls.get(name, 0) + 1
        prow = rows[pr]
        pv = prow[c]
        out = []
        for r, row in enumerate(rows):
            if r == pr:
                out.append(prow)
                continue
            new = []
            for x, y in zip(row, prow):
                q, rem = divmod(pv * x - row[c] * y, prev)
                assert rem == 0, (name, rows, pr, c, prev)
                new.append(q)
            out.append(new)
        return out

    return pivot


def test_every_pivot_divides_exactly(monkeypatch):
    # The lattice and the oracle on the lattice test corpora, then the
    # membership LPs, each with every binding of the pivot step replaced.
    cases = [
        (inst, list(range(len(inst.points))))
        for _, inst in itertools.chain(lattice_instances(), random_lattice_instances())
    ]
    cases += [(inst, inst.positive_indices()) for _, inst in reduction_instances()]

    lps = membership_lps(random.Random(1617), 200)

    def run():
        out = []
        for inst, members in cases:
            coords = scale_to_integers([wp.point for wp in inst.points])
            out.append((list(containment_layers(coords, members)), solve_bruteforce(inst)))
        return out, [_convex_combination_feasible(rows, rhs) for rows, rhs in lps]

    want = run()
    calls = {}
    bound = [
        name
        for name, module in sys.modules.items()
        if name.startswith("mwcp") and getattr(module, "exact_pivot", None) is geometry.exact_pivot
    ]
    assert {"mwcp.geometry", "mwcp.oracle"} <= set(bound)
    for name in bound:
        monkeypatch.setattr(sys.modules[name], "exact_pivot", divmod_pivot(calls, name))
    assert run() == want
    assert set(calls) == set(bound), calls


def test_lattice_disagreeing_with_evaluate_raises(monkeypatch):
    # a tetrahedron around a negative point; the lattice forgets that point
    inst = make_instance(
        3,
        [((0, 0, 0), 1), ((4, 0, 0), 1), ((0, 4, 0), 1), ((0, 0, 4), 1), ((1, 1, 1), -1)],
    )
    assert solve_bruteforce(inst).weight == 3
    layers = oracle.containment_layers

    def forget_last(coords, members):
        for layer in layers(coords, members):
            yield {s: c & ~(1 << 4) for s, c in layer.items()}

    monkeypatch.setattr(oracle, "containment_layers", forget_last)
    with pytest.raises(RuntimeError, match="disagrees with evaluate"):
        solve_bruteforce(inst)
