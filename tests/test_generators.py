from fractions import Fraction
from math import lcm

import pytest

from mwcp import generators
from mwcp.geometry import convex_hull_2d, point_in_convex_polygon
from mwcp.generators import gen_ngon_family, gen_uniform
from mwcp.model import canonicalize
from mwcp.oracle import solve_bruteforce
from mwcp.solver1d import solve_1d
from mwcp.solver2d import solve_2d
from support import convex_polygon_reference, segments_intersect


def test_uniform_deterministic():
    a = gen_uniform(5, 2, 7)
    b = gen_uniform(5, 2, 7)
    assert a.points == b.points
    assert a.meta == b.meta
    c = gen_uniform(5, 2, 8)
    assert a.points != c.points


def test_uniform_all_positive_hull_of_everything():
    inst = gen_uniform(6, 2, 3, (1, 1))
    sol = solve_2d(inst)
    assert sol.weight == 6
    assert len(sol.contained) == 6


def test_uniform_1d_matches_oracle():
    inst = gen_uniform(10, 1, 1)
    assert solve_1d(inst).weight == solve_bruteforce(inst).weight


def test_uniform_rejects_degenerate_ranges():
    with pytest.raises(ValueError):
        gen_uniform(3, 2, 0, (0, 0))
    with pytest.raises(ValueError):
        gen_uniform(3, 2, 0, (4, 2))
    with pytest.raises(ValueError):
        gen_uniform(0, 2, 0)


def test_uniform_canonical_unchanged():
    for seed in range(5):
        inst = gen_uniform(12, 2, seed)
        assert canonicalize(inst) is inst


def test_ngon_structure():
    inst = gen_ngon_family(3)
    assert len(inst.points) == 6
    assert sum(1 for wp in inst.points if wp.weight == 1) == 3
    assert sum(1 for wp in inst.points if wp.weight == -1) == 3
    assert solve_bruteforce(inst).weight == 3


def test_ngon_on_unit_circle():
    inst = gen_ngon_family(8)
    for wp in inst.points:
        if wp.weight == 1:
            x, y = wp.point
            assert x * x + y * y == 1


def test_ngon_optimum_is_n():
    for n in (3, 4, 5, 6, 9, 12):
        inst = gen_ngon_family(n)
        assert solve_2d(inst).weight == n


def test_ngon_construction_properties():
    for n in (3, 4, 5, 7, 10, 13):
        inst = gen_ngon_family(n)
        pos = [wp.point for wp in inst.points if wp.weight == 1]
        neg = [wp.point for wp in inst.points if wp.weight == -1]
        hull = convex_hull_2d(pos)
        assert len(hull) == n
        for p in neg:
            assert not point_in_convex_polygon(p, hull)
        edges = [(hull[i - 1], hull[i]) for i in range(n)]
        for i in range(n):
            a, b = neg[i], neg[(i + 1) % n]
            assert any(segments_intersect(a, b, e1, e2) for e1, e2 in edges)


def test_ngon_deterministic_and_canonical():
    a = gen_ngon_family(9)
    b = gen_ngon_family(9)
    assert a.points == b.points
    assert canonicalize(a) is a
    assert "delta" in a.meta


def test_ngon_rejects_small_n():
    with pytest.raises(ValueError):
        gen_ngon_family(2)


def _ngon_valid_reference(hull, negs):
    """The generator's validity check by edge loop and segment intersection,
    on a copy scaled by one common denominator (a similarity keeps every
    predicate)."""
    den = lcm(*(c.denominator for p in (*hull, *negs) for c in p))
    hull, negs = ([(int(x * den), int(y * den)) for x, y in pts] for pts in (hull, negs))
    if any(convex_polygon_reference(p, hull) for p in negs):
        return False
    edges = [(hull[i - 1], hull[i]) for i in range(len(hull))]
    return all(
        any(segments_intersect(a, b, e1, e2) for e1, e2 in edges)
        for a, b in zip(negs, negs[1:] + negs[:1])
    )


def test_ngon_valid_matches_segment_reference(monkeypatch):
    # Every halving the generator tries, the rejected ones too.
    seen = []
    valid = generators._ngon_valid

    def recording(hull, negs):
        ok = valid(hull, negs)
        seen.append((hull, negs, ok))
        return ok

    monkeypatch.setattr(generators, "_ngon_valid", recording)
    for n in range(3, 41):
        gen_ngon_family(n)
    for hull, negs, ok in seen:
        assert ok == _ngon_valid_reference(hull, negs), len(hull)
    assert sum(ok for *_, ok in seen) == 38
    assert len(seen) > 2 * 38


def test_segment_meets_polygon_cases():
    square = [(0, 0), (4, 0), (4, 4), (0, 4)]
    meets = generators._segment_meets_polygon
    # touches only the vertex (4, 4), or only the edge point (2, 4)
    assert meets((3, 5), (5, 3), square) is True
    assert meets((6, 2), (4, 4), square) is True
    assert meets((2, 4), (2, 6), square) is True
    # crosses an edge, and lies across the whole square
    assert meets((2, 2), (2, 9), square) is True
    assert meets((-1, -1), (5, 5), square) is True
    # its line cuts the square, but the segment stops beyond it
    assert meets((6, 2), (9, 2), square) is False
    assert meets((5, 6), (7, 9), square) is False
    # its line misses the square
    assert meets((-1, 6), (6, 6), square) is False
    assert meets((5, -1), (9, 3), square) is False


def test_ngon_valid_cases():
    square = [(Fraction(x), Fraction(y)) for x, y in [(0, 0), (4, 0), (4, 4), (0, 4)]]

    def ring(pts):
        return [(Fraction(x), Fraction(y)) for x, y in pts]

    # each segment between consecutive negatives cuts a corner of the square
    assert generators._ngon_valid(square, ring([(2, -1), (5, 2), (2, 5), (-1, 2)])) is True
    # pushed too far: the segments pass the corners by
    assert generators._ngon_valid(square, ring([(2, -5), (9, 2), (2, 9), (-5, 2)])) is False
    # a negative point inside the square
    assert generators._ngon_valid(square, ring([(2, 2), (5, 2), (2, 5), (-1, 2)])) is False
