import itertools
import random
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from mwcp.geometry import (
    _convex_combination_feasible,
    convex_hull_2d,
    convex_polygon_members,
    hull_members,
    point_in_convex_polygon,
    point_in_hull,
    shear_normalize,
)
from support import (
    convex_polygon_reference,
    in_hull_reference,
    orientation,
    point_on_segment,
    random_rational,
    segments_intersect,
)


def test_shear_identity_when_x_distinct():
    pts = [(0, 0), (1, 1), (2, 5)]
    out, s = shear_normalize(pts)
    assert s == 1
    assert out == pts


def test_shear_breaks_single_tie():
    # One distinct x: g = 1, y spread 1, so s = 1 // 1 + 2.
    out, s = shear_normalize([(0, 0), (0, 1)])
    assert s == 3
    assert out == [(0, 0), (1, 1)]


def test_shear_grid_example():
    # g = 1, y spread 2: s = 4, and the tie at each x breaks by ascending y.
    out, s = shear_normalize([(0, 0), (0, 2), (1, 0), (1, 2)])
    assert s == 4
    assert out == [(0, 0), (2, 2), (4, 0), (6, 2)]


def test_shear_preserves_orientation():
    rng = random.Random(7)
    for _ in range(300):
        pts = []
        while len(pts) < 5:
            p = (rng.randint(0, 4), rng.randint(0, 4))
            if p not in pts:
                pts.append(p)
        out, _ = shear_normalize(pts)
        xs = {p[0] for p in out}
        assert len(xs) == 5
        for a, b, c in itertools.permutations(range(5), 3):
            assert orientation(pts[a], pts[b], pts[c]) == orientation(out[a], out[b], out[c])


COORD = st.integers(-10**6, 10**6)
SHEAR_SETTINGS = settings(derandomize=True, database=None, max_examples=150, deadline=None)

# Hypothesis caches the constants of local modules in its home directory when
# it collects, even without a database; keep that cache out of the checkout.
HYPOTHESIS_HOME = tempfile.TemporaryDirectory()
set_hypothesis_home_dir(HYPOTHESIS_HOME.name)


@st.composite
def shared_x_points(draw):
    """A permuted set of distinct int points, more of them than distinct x."""
    xs = draw(st.lists(COORD, min_size=1, max_size=5, unique=True))
    pts = draw(st.sets(st.tuples(st.sampled_from(xs), COORD), min_size=len(xs) + 1, max_size=12))
    return draw(st.permutations(sorted(pts)))


@SHEAR_SETTINGS
@given(shared_x_points())
def test_shear_contract_on_shared_x(pts):
    out, s = shear_normalize(pts)
    assert len({x for x, _ in out}) == len(pts)
    xs = sorted({x for x, _ in pts})
    gap = min((b - a for a, b in zip(xs, xs[1:])), default=1)
    ys = [y for _, y in pts]
    assert s >= 2 and s * gap > max(ys) - min(ys)
    order = sorted(range(len(pts)), key=lambda i: out[i][0])
    assert order == sorted(range(len(pts)), key=pts.__getitem__)
    for a, b, c in itertools.combinations(range(len(pts)), 3):
        assert orientation(pts[a], pts[b], pts[c]) == orientation(out[a], out[b], out[c])


@SHEAR_SETTINGS
@given(st.lists(st.tuples(COORD, COORD), max_size=12, unique_by=lambda p: p[0]))
def test_shear_identity_on_distinct_x(pts):
    assert shear_normalize(pts) == (pts, 1)


def test_hull_single_point():
    assert convex_hull_2d([(0, 0)]) == [(0, 0)]


def test_hull_collinear_drops_midpoint():
    assert convex_hull_2d([(0, 0), (2, 0), (1, 0)]) == [(0, 0), (2, 0)]


def test_hull_square_with_center():
    pts = [(0, 0), (2, 0), (2, 2), (0, 2), (1, 1)]
    hull = convex_hull_2d(pts)
    assert hull == [(0, 0), (2, 0), (2, 2), (0, 2)]


def test_hull_strictly_convex_and_idempotent():
    rng = random.Random(23)
    for _ in range(100):
        pts = [
            (Fraction(rng.randint(0, 8)), Fraction(rng.randint(0, 8)))
            for _ in range(rng.randint(1, 12))
        ]
        hull = convex_hull_2d(pts)
        assert set(hull) <= set(tuple(map(Fraction, p)) for p in pts)
        h = len(hull)
        if h >= 3:
            for i in range(h):
                turn = orientation(hull[i], hull[(i + 1) % h], hull[(i + 2) % h])
                assert turn == 1
        assert convex_hull_2d(hull) == hull


def test_point_in_hull_examples():
    square2 = [(0, 0), (2, 0), (2, 2), (0, 2)]
    assert point_in_hull((1, 1), square2) is True
    unit = [(0, 0), (1, 0), (1, 1), (0, 1)]
    assert point_in_hull((3, 0), unit) is False
    moment = [(i, i**2, i**3, i**4) for i in range(1, 6)]
    assert point_in_hull((1, 1, 1, 1), moment) is True


def test_point_in_hull_contract_errors():
    with pytest.raises(ValueError):
        point_in_hull((1, 1), [])
    with pytest.raises(ValueError):
        point_in_hull((1, 1, 1), [(0, 0), (1, 1)])


def test_point_in_hull_matches_reference():
    rng = random.Random(5)
    for _ in range(120):
        d = rng.randint(2, 4)
        m = rng.randint(1, 6)
        verts = [tuple(Fraction(rng.randint(0, 6)) for _ in range(d)) for _ in range(m)]
        v = tuple(Fraction(rng.randint(0, 6)) for _ in range(d))
        assert point_in_hull(v, verts) == in_hull_reference(v, verts)


def test_hull_members_matches_point_in_hull():
    # one call over shared vertex rows answers as the per-point wrapper does,
    # with negative coordinates, vertices, and points off the bounding box
    rng = random.Random(8)
    for _ in range(60):
        d = rng.randint(1, 4)
        verts = [tuple(rng.randint(-4, 4) for _ in range(d)) for _ in range(rng.randint(1, 6))]
        pts = [tuple(rng.randint(-5, 5) for _ in range(d)) for _ in range(8)] + verts[:2]
        assert hull_members(pts, verts) == [point_in_hull(p, verts) for p in pts]


def test_convex_combination_feasible_negative_rhs():
    # x >= 0 with x = -1 has no solution; the row must be negated before the
    # artificial basis starts, or the first pivot "finds" x = -1
    assert _convex_combination_feasible([[1]], [-1]) is False
    assert _convex_combination_feasible([[-1]], [-1]) is True
    # x0 + x1 = 1 and x0 - x1 = -3 forces x0 = -1
    assert _convex_combination_feasible([[1, 1], [1, -1]], [1, -3]) is False
    assert _convex_combination_feasible([[1, 1], [1, -1]], [1, -1]) is True


def test_point_in_hull_agrees_with_hull_insertion():
    # membership (simplex route) vs hull-vertex-set stability (hull route)
    rng = random.Random(31)
    for _ in range(500):
        m = rng.randint(1, 8)
        verts = [
            (Fraction(rng.randint(0, 10)), Fraction(rng.randint(0, 10)))
            for _ in range(m)
        ]
        v = (Fraction(rng.randint(0, 10)), Fraction(rng.randint(0, 10)))
        base = convex_hull_2d(verts)
        grown = convex_hull_2d(verts + [v])
        stable = set(grown) <= set(base) or v in set(base)
        assert point_in_hull(v, verts) == stable


def test_point_on_segment():
    assert point_on_segment((1, 1), (0, 0), (2, 2)) is True
    assert point_on_segment((3, 3), (0, 0), (2, 2)) is False
    assert point_on_segment((1, 0), (0, 0), (2, 2)) is False


def test_segments_intersect():
    assert segments_intersect((0, 0), (2, 2), (0, 2), (2, 0)) is True
    assert segments_intersect((0, 0), (1, 0), (2, 0), (3, 0)) is False
    assert segments_intersect((0, 0), (2, 0), (1, 0), (1, 5)) is True  # touch
    assert segments_intersect((0, 0), (2, 0), (1, 0), (3, 0)) is True  # overlap
    assert segments_intersect((0, 0), (1, 1), (2, 2), (3, 3)) is False


def _membership_hulls(rng):
    """(hull, unit) pairs: degenerate, vertical-edged, collinear and random
    hulls on ints, small Fractions and a 2^-60 grid; ``unit`` is the step the
    outside probes take."""
    tiny = Fraction(1, 2**60)
    sets = [
        [],
        [(3, 4)],
        [(0, 0), (5, 2)],
        [(2, 0), (2, 7)],  # vertical segment
        [(0, 0), (1, 1), (2, 2), (5, 5)],  # collinear
        [(0, 0), (0, 1), (0, 5)],  # collinear and vertical
        [(0, 0), (0, 4), (4, 0), (4, 4)],  # vertical left and right edges
        [(0, 1), (0, 3), (2, 0), (3, 2)],  # vertical left edge only
        [(0, 0), (2, 3), (3, 1), (3, 4)],  # vertical right edge only
        [(0, 0), (0, 2), (1, 5), (2, -1), (2, 2)],
    ]
    out = [([tuple(map(Fraction, p)) for p in pts], Fraction(1)) for pts in sets]
    for t in range(180):
        k = rng.randint(1, 9)
        kind = t % 3
        if kind == 0:
            pts = [(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(k)]
            if t % 2:  # share the smallest and largest x
                xs = [x for x, _ in pts]
                pts += [(min(xs), rng.randint(-6, 6)), (max(xs), rng.randint(-6, 6))]
            unit = 1
        elif kind == 1:
            pts = [(random_rational(rng, 6, 5), random_rational(rng, 6, 5)) for _ in range(k)]
            unit = Fraction(1)
        else:
            pts = [(3 + rng.randint(-4, 4) * tiny, rng.randint(-4, 4) * tiny) for _ in range(k)]
            unit = tiny
        out.append((pts, unit))
    return [(convex_hull_2d(pts), unit) for pts, unit in out]


def _membership_probes(rng, hull, unit):
    """Every vertex, every edge midpoint, a point one unit outside each edge,
    and points around the bounding box (vertex x values included)."""
    probes = list(hull)
    for i in range(len(hull)):
        (ax, ay), (bx, by) = hull[i - 1], hull[i]
        mx, my = Fraction(ax + bx) / 2, Fraction(ay + by) / 2
        dx, dy = bx - ax, by - ay
        probes.append((mx, my))
        # Right of the CCW edge: its cross product is -unit * (|dx| + |dy|).
        probes.append((mx + unit * ((dy > 0) - (dy < 0)), my - unit * ((dx > 0) - (dx < 0))))
    if hull:
        xs = sorted({p[0] for p in hull})
        ys = [p[1] for p in hull]
        lo, hi = min(ys) - unit, max(ys) + unit
        for x in [xs[0] - unit, *xs, xs[-1] + unit]:
            for _ in range(4):
                probes.append((x, lo + (hi - lo) * Fraction(rng.randint(0, 8), 8)))
    else:
        probes += [(0, 0), (unit, -unit)]
    return probes


def test_convex_polygon_members_matches_edge_loop():
    rng = random.Random(97)
    checks = 0
    for hull, unit in _membership_hulls(rng):
        probes = _membership_probes(rng, hull, unit)
        expect = [convex_polygon_reference(p, hull) for p in probes]
        assert convex_polygon_members(probes, hull) == expect, hull
        assert [point_in_convex_polygon(p, hull) for p in probes] == expect
        checks += len(probes)
        if len(hull) >= 2:
            assert not all(expect)
            assert any(expect)
    assert checks > 5000


def test_point_in_convex_polygon_inclusive():
    hull = convex_hull_2d([(0, 0), (4, 0), (4, 4), (0, 4)])
    assert point_in_convex_polygon((2, 2), hull) is True
    assert point_in_convex_polygon((0, 2), hull) is True  # boundary
    assert point_in_convex_polygon((5, 2), hull) is False
