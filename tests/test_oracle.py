import itertools
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import mwcp.oracle as oracle
from mwcp import geometry
from mwcp.geometry import hull_members, scale_to_integers
from mwcp.model import Instance, WeightedPoint, evaluate, make_instance
from mwcp.oracle import OracleSizeError, containment_layers, solve_bruteforce
from mwcp.reduction import make_graph, reduce_is_to_mwcp
from mwcp.solver1d import solve_1d
from support import (
    _barycentric,
    assert_valid_witness,
    convex_combination_feasible,
    exact_pivot_reference,
    in_hull_reference,
    membership_lps,
    pack,
    random_instance,
    reference_containment_layers,
    unpack,
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


def test_lattice_matches_in_hull_reference():
    # point_in_hull runs the same exact-division elimination as the lattice,
    # so the lattice is checked against the independent subset search alone.
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
                assert got == [i for i, p in enumerate(pts) if in_hull_reference(p, verts)], name


def divmod_pivot(calls, name):
    """``geometry.exact_pivot`` by ``divmod`` on each unpacked field, failing
    on any remainder: a floor ``//`` would silently round an inexact
    division, and a packed quotient can be exact while its fields are not."""

    def pivot(rows, pr, c, prev, w, bias):
        calls[name] = calls.get(name, 0) + 1
        n = bias.bit_length() // w
        fields = [unpack(row, w, n) for row in rows]
        prow = fields[pr]
        pv = prow[c]
        out = []
        for r, row in enumerate(fields):
            if r == pr:
                out.append(rows[pr])
                continue
            new = []
            for x, y in zip(row, prow):
                q, rem = divmod(pv * x - row[c] * y, prev)
                assert rem == 0, (name, fields, pr, c, prev)
                new.append(q)
            out.append(pack(new, w))
        return out

    return pivot


def pivot_cases():
    """The lattice corpora with their members, and 200 membership LPs."""
    cases = [
        (inst, list(range(len(inst.points))))
        for _, inst in itertools.chain(lattice_instances(), random_lattice_instances())
    ]
    cases += [(inst, inst.positive_indices()) for _, inst in reduction_instances()]
    return cases, membership_lps(random.Random(1617), 200)


def run_pivot_cases(cases, lps):
    out = []
    for inst, members in cases:
        coords = scale_to_integers([wp.point for wp in inst.points])
        out.append((list(containment_layers(coords, members)), solve_bruteforce(inst)))
    return out, [convex_combination_feasible(rows, rhs) for rows, rhs in lps]


def bind_pivot(monkeypatch, make):
    """Replace every binding of ``geometry.exact_pivot`` in mwcp by
    ``make(name)``; returns the names, among them the geometry module, whose
    binding the LP, ``hull_members`` and the oracle's walk (through
    ``geometry.pivot_free_row``) all call."""
    bound = [
        name
        for name, module in sys.modules.items()
        if name.startswith("mwcp") and getattr(module, "exact_pivot", None) is geometry.exact_pivot
    ]
    assert "mwcp.geometry" in bound
    assert oracle.pivot_free_row is geometry.pivot_free_row
    for name in bound:
        monkeypatch.setattr(sys.modules[name], "exact_pivot", make(name))
    return bound


def test_every_pivot_divides_exactly(monkeypatch):
    # The lattice and the oracle on the lattice test corpora, then the
    # membership LPs, each with every binding of the pivot step replaced.
    cases, lps = pivot_cases()
    want = run_pivot_cases(cases, lps)
    calls = {}
    bound = bind_pivot(monkeypatch, lambda name: divmod_pivot(calls, name))
    assert run_pivot_cases(cases, lps) == want
    assert set(calls) == set(bound), calls


def field_checked_pivot(calls, name, truth, kernel, lp):
    """``geometry.exact_pivot`` that unpacks each pivot's input and output
    and checks them field by field against ``exact_pivot_reference``.

    ``truth`` maps ``(bias, packed row)`` to the reference's fields of every
    row built so far, so each input is the reference's own matrix rather
    than a fresh unpack; only a starting matrix (previous pivot 1) is
    unpacked.  Every field but the LP's rhs must stay below 2^(w - 1).  The
    LP also reads sums of up to all its rows, so there the absolute fields
    of each column but the rhs must sum below 2^(w - 1) too.  ``lp`` is the
    ``lp_calls`` recorder: a pivot is the LP's while an LP runs."""

    def pivot(rows, pr, c, prev, w, bias):
        calls[name] = calls.get(name, 0) + 1
        n = bias.bit_length() // w
        assert prev == 1 or all((bias, row) in truth for row in rows), name
        lists = [truth.get((bias, row)) or unpack(row, w, n) for row in rows]
        want = exact_pivot_reference(lists, pr, c, prev)
        got = kernel(rows, pr, c, prev, w, bias)
        limit = 1 << w - 1
        for matrix in lists, want:
            cols = list(zip(*matrix))
            if lp.running:
                # The LP's top field is its rhs, which may take any size.
                cols = cols[:-1]
                assert all(sum(map(abs, col)) < limit for col in cols), (name, w)
            assert all(abs(x) < limit for col in cols for x in col), (name, w)
        assert [unpack(row, w, n) for row in got] == want, name
        for row, fields in zip(got, want):
            truth[bias, row] = fields
        return got

    return pivot


def sylvester(order):
    """The Sylvester Hadamard matrix of a power-of-two order, whose entry
    (i, j) is (-1)^popcount(i & j); row 0 is all ones."""
    return [[(-1) ** (i & j).bit_count() for j in range(order)] for i in range(order)]


def hadamard_instance():
    """A simplex at the field-width bound: the 4 points whose ``[1; coords]``
    is the Sylvester Hadamard matrix of order 4 with its coordinate rows
    scaled by 2^62 - 1 (|det| = 16 (2^62 - 1)^3, about 2^190), plus points
    on, inside and just outside its faces and edges."""
    k = 2**62 - 1
    h = sylvester(4)
    verts = [tuple(h[a][j] * k for a in range(1, 4)) for j in range(4)]
    third = k // 3
    others = [
        (0, 0, 0),  # the centroid
        (0, k, 0),  # the midpoint of the edge v0 v1
        (-third, -third, -third),  # the centroid of the face opposite v0
        (1 - third, 1 - third, 1 - third),
        (-1 - third, -1 - third, -1 - third),
        (0, k + 1, 0),
        (k, k, -k),  # a corner of the bounding box
    ]
    rows = [(p, 1) for p in verts] + [(p, w) for p, w in zip(others, [-1, 2, -3, 1, -5, 4, -6])]
    return make_instance(3, rows)


def hadamard_lps():
    """Membership LPs at the field-width bound: the 8 vertices whose ``[1;
    coords]`` is the Sylvester Hadamard matrix of order 8 with its
    coordinate rows scaled by k, a multiple of 7 near 2^62 (|det| = 2^12
    k^7, about 2^446, where 8! is about 2^15), and 7 points in their
    bounding box: the centroid, an edge midpoint, the centroid of the face
    opposite v7, that point nudged by 1 inwards and outwards, and two
    corners of the box.  Returns ``(rows, points, inside)``."""
    k = 2**62 - 1 - (2**62 - 1) % 7
    h = sylvester(8)
    verts = [[h[a][j] * k for a in range(1, 8)] for j in range(8)]
    face = [-x // 7 for x in verts[7]]
    unit = [x // k for x in verts[7]]
    points = [
        [0] * 7,
        [(x + y) // 2 for x, y in zip(verts[0], verts[1])],
        face,
        [x + u for x, u in zip(face, unit)],
        [x - u for x, u in zip(face, unit)],
        [k] * 6 + [-k],
        [-k] * 7,
    ]
    rows = [[1] * 8] + [[v[a] for v in verts] for a in range(7)]
    return rows, points, [True] * 4 + [False] * 3


def test_packed_rows_match_list_reference(monkeypatch, lp_calls):
    cases, lps = pivot_cases()
    near = hadamard_instance()
    cases.append((near, list(range(len(near.points)))))
    rows, points, _ = hadamard_lps()
    lps += [(rows, [1, *p]) for p in points]
    want = run_pivot_cases(cases, lps)
    calls = {}
    truth = {}
    kernel = geometry.exact_pivot
    bound = bind_pivot(monkeypatch, lambda name: field_checked_pivot(calls, name, truth, kernel, lp_calls))
    before = len(lp_calls)
    assert run_pivot_cases(cases, lps) == want
    assert set(calls) == set(bound), calls
    # every LP case ran under the LP's checks
    assert len(lp_calls) - before >= len(lps)


def test_near_bound_simplex_is_exact():
    inst = hadamard_instance()
    pts = [wp.point for wp in inst.points]
    coords, _, _ = inst.integer_view
    members = list(range(len(pts)))
    got = list(containment_layers(coords, members))
    assert got == list(reference_containment_layers(coords, members))
    inside = [in_hull_reference(p, pts[:4]) for p in pts]
    assert inside == [True] * 8 + [False] * 3
    assert got[4][0b1111] == 0b11111111
    assert hull_members(list(coords), list(coords[:4])) == inside
    pos = inst.positive_indices()
    best = max(
        sum(wp.weight for wp in inst.points if in_hull_reference(wp.point, [pts[i] for i in sub]))
        for k in range(1, len(pos) + 1)
        for sub in itertools.combinations(pos, k)
    )
    for allow_empty in (True, False):
        sol = solve_bruteforce(inst, allow_empty=allow_empty)
        assert sol.weight == best
        assert_valid_witness(inst, sol)
    rows, points, inside = hadamard_lps()
    verts = [tuple(col) for col in zip(*rows[1:])]
    # The vertices are affinely independent: one barycentric solve decides.
    assert [min(_barycentric(p, verts)) >= 0 for p in points] == inside
    assert hull_members([tuple(p) for p in points], verts) == inside


@st.composite
def lattice_cases(draw):
    """Int points in d = 1..5 with coordinates up to 2^62, n <= 9, and the
    indices whose subsets the lattice enumerates.  Offsets from a base point
    span d directions (general), d - 1 (coplanar) or 1 (collinear), or come
    in pairs along one shared direction (repeated); one axis may be 0 for
    every point."""
    d = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["general", "coplanar", "collinear", "repeated"]))
    unit = draw(st.sampled_from([1, 3, 2**30, 2**57]))
    rank = {"general": d, "coplanar": max(d - 1, 1), "collinear": 1, "repeated": d}[kind]
    dirs = [[draw(st.integers(-3, 3)) * unit for _ in range(d)] for _ in range(rank)]
    base = [draw(st.integers(-2**61, 2**61)) for _ in range(d)]
    zero = draw(st.sampled_from([None, *range(d)]))

    def offset():
        cs = [draw(st.integers(-2, 2)) for _ in dirs]
        return [sum(c * u[a] for c, u in zip(cs, dirs)) for a in range(d)]

    offsets = [offset() for _ in range(draw(st.integers(1, 9)))]
    if kind == "repeated":
        shared = offset()
        offsets = [o for o in offsets[:4] for o in (o, [x + y for x, y in zip(o, shared)])]
    points = list(dict.fromkeys(
        tuple(0 if a == zero else b + x for a, (b, x) in enumerate(zip(base, o)))
        for o in offsets
    ))
    members = [i for i in range(len(points)) if draw(st.booleans())]
    return points, members


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(lattice_cases())
def test_lattice_matches_reference_on_big_degenerate_sets(case):
    coords, members = case
    got = list(containment_layers(coords, members))
    assert got == list(reference_containment_layers(coords, members))


def test_reduction_solves_never_run_the_lp(lp_calls):
    # The witnesses here have at most d + 1 = 5 vertices, all on the moment
    # curve, so they are affinely independent and the final evaluate
    # decides every point with one elimination.  So does evaluate on five
    # graph vertices, whose simplex spans the space: every point is in its
    # affine hull, and the other graph vertices are outside it.
    sizes = set()
    for name, inst in reduction_instances():
        for allow_empty in (True, False):
            sizes.add(len(solve_bruteforce(inst, allow_empty=allow_empty).chosen))
        vertices = inst.meta["vertex_point_index"]
        assert not set(vertices[5:]) & set(evaluate(inst, vertices[:5]).contained)
    assert max(sizes) <= 5 and lp_calls == [], (sizes, lp_calls)


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
