import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mwcp import geometry
from mwcp.geometry import (
    convex_hull_2d,
    convex_polygon_members,
    hull_members,
    pack_affine,
    point_in_convex_polygon,
    point_in_hull,
    shear_normalize,
    sign_bits,
)
from support import (
    _barycentric,
    convex_combination_feasible,
    convex_polygon_reference,
    hull_member_cases,
    in_hull_reference,
    membership_lps,
    orientation,
    point_on_segment,
    random_rational,
    reference_lp_pivots,
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


def test_hull_members_matches_reference_by_kind():
    # d = 1..5, |V| up to d + 2, general, coplanar, collinear and repeated
    # vertices at scales up to 2^60, and every kind of point on each
    cases = hull_member_cases(random.Random(19), 100)
    seen = {}
    for points, verts, labels in cases:
        want = [in_hull_reference(p, verts) for p in points]
        assert hull_members(points, verts) == want, (points, verts)
        for label, inside in zip(labels, want):
            seen[label, inside] = seen.get((label, inside), 0) + 1
    assert {len(verts[0]) for _, verts, _ in cases} == {1, 2, 3, 4, 5}
    assert sum(len(verts) > len(verts[0]) + 1 for _, verts, _ in cases) >= 20
    # face points are inside; the other kinds fall on both sides
    assert seen.get(("face", False), 0) == 0 and seen["face", True] == 3 * len(cases)
    for label in ("affine", "nudged", "random"):
        assert seen[label, True] >= 5 and seen[label, False] >= 5, (label, seen)


def test_packing_and_sign_bits_of_long_rows():
    # Rows longer than one packing block are packed by halves; both must
    # equal the plain field sum, and sign_bits must read every column.
    rng = random.Random(41)
    for n in (1, 63, 64, 65, 130, 1000):
        points = [(rng.randint(-2**40, 2**40), rng.randint(-9, 9)) for _ in range(n)]
        w, bias, rows = pack_affine(points)
        plain = [[1] * n, [p[0] for p in points], [p[1] for p in points]]
        assert rows == [sum(x << w * j for j, x in enumerate(row)) for row in plain]
        assert bias == sum(1 << w * j + w - 1 for j in range(n))
        for start in (0, 1, n // 2):
            signs = (rows[1] + bias) & bias
            want = [bool(signs >> w * j + w - 1 & 1) for j in range(start, n)]
            assert sign_bits(signs, w, start, n - start) == want == [p[0] >= 0 for p in points[start:]]


def test_hull_members_on_many_points():
    # Hundreds of points against one vertex set: 1D intervals, and 3D
    # vertex sets that are affinely independent or not.
    rng = random.Random(43)
    line = [(rng.randint(-50, 50),) for _ in range(300)]
    for verts in ([(-7,)], [(3,), (-20,), (9,)]):
        assert hull_members(line, verts) == [in_hull_reference(p, verts) for p in line]
    cloud = [tuple(rng.randint(-6, 6) for _ in range(3)) for _ in range(200)]
    for m in (3, 4, 5):
        verts = [tuple(rng.randint(-6, 6) for _ in range(3)) for _ in range(m)]
        want = [in_hull_reference(p, verts) for p in cloud]
        assert hull_members(cloud, verts) == want, verts
        assert any(want) and not all(want)


def test_independent_vertices_never_run_the_lp(lp_calls):
    # One elimination decides every point of an affinely independent vertex
    # set; only a dependent one may leave points open for the phase-I LP.
    independent = 0
    for points, verts, _ in hull_member_cases(random.Random(23), 400):
        before = len(lp_calls)
        hull_members(points, verts)
        if _barycentric(verts[0], verts) is not None:
            independent += 1
            assert len(lp_calls) == before, verts
    assert independent >= 100
    # dependent sets do reach the LP, so the count above is live
    assert lp_calls


def test_convex_combination_feasible_negative_rhs():
    # x >= 0 with x = -1 has no solution; the row must be negated before the
    # artificial basis starts, or the first pivot "finds" x = -1
    assert convex_combination_feasible([[1]], [-1]) is False
    assert convex_combination_feasible([[-1]], [-1]) is True
    # x0 + x1 = 1 and x0 - x1 = -3 forces x0 = -1
    assert convex_combination_feasible([[1, 1], [1, -1]], [1, -3]) is False
    assert convex_combination_feasible([[1, 1], [1, -1]], [1, -1]) is True


def test_convex_combination_feasible_wide_rhs():
    # The rhs is the packed tableau's top field, so it may be far wider than
    # the field width the rows set: x1 = 2^89 and x0 = 2^90 - x1 >= 0, but
    # x1 = 2^90 + 1 forces x0 = -1.
    rows = [[1, 1], [0, 1]]
    assert convex_combination_feasible(rows, [2**90, 2**89]) is True
    assert convex_combination_feasible(rows, [2**90, 2**90 + 1]) is False
    assert convex_combination_feasible(rows, [-(2**90), -(2**89)]) is False
    assert convex_combination_feasible([[3, 1, 0], [0, 1, 2]], [3 * 2**70, 2**71 + 1]) is True


def test_lp_pivots_match_gcd_reference(monkeypatch):
    # Under either normalization each row is a positive multiple of the
    # same equation, so Bland's rule and the ratio test see the same signs
    # and ratios: the exact-division LP pivots where the gcd-normalized
    # reference does, and reaches the same verdict.
    pivot = geometry.exact_pivot
    feasible = 0
    for rows, rhs in membership_lps(random.Random(1616), 300):
        want_feasible, want = reference_lp_pivots(rows, rhs)
        got = []

        def record(tableau, pr, c, *rest):
            got.append((pr, c))
            assert got == want[: len(got)], (rows, rhs)
            return pivot(tableau, pr, c, *rest)

        monkeypatch.setattr(geometry, "exact_pivot", record)
        assert convex_combination_feasible(rows, rhs) == want_feasible, (rows, rhs)
        assert got == want, (rows, rhs)
        feasible += want_feasible
    assert 50 <= feasible <= 250, feasible


BIG_UNIT = st.sampled_from([1, 3, 2**30, 2**53])
HULL_SETTINGS = settings(derandomize=True, database=None, max_examples=200, deadline=None)


@st.composite
def hull_cases(draw):
    """Int vertices in d = 2..5 and int points to test, coordinates up to
    2^62.  The vertex offsets from a base point span d directions
    (general), d - 1 (coplanar) or 1 (collinear), or come in pairs along one
    shared direction (repeated).  Vertices sit at 4 * offset, so a point
    at the sum of four vertex offsets is a convex combination of them; such
    points are tested as they are and nudged off by one, with random
    offsets and a vertex."""
    d = draw(st.sampled_from([2, 3, 4, 5]))
    kind = draw(st.sampled_from(["general", "coplanar", "collinear", "repeated"]))
    unit = draw(BIG_UNIT)
    small = st.integers(-3, 3)
    rank = {"general": d, "coplanar": d - 1, "collinear": 1, "repeated": d}[kind]
    dirs = [[draw(small) * unit for _ in range(d)] for _ in range(rank)]
    base = [draw(st.integers(-2**61, 2**61)) for _ in range(d)]

    def offset():
        cs = [draw(st.integers(-2, 2)) for _ in dirs]
        return [sum(c * u[a] for c, u in zip(cs, dirs)) for a in range(d)]

    k = draw(st.integers(1, 6 if d < 4 else 5))
    offsets = [offset() for _ in range(k)]
    if kind == "repeated":
        shared = offset()
        offsets = [o for o in offsets[:3] for o in (o, [x + y for x, y in zip(o, shared)])]
    verts = list(dict.fromkeys(tuple(b + 4 * x for b, x in zip(base, o)) for o in offsets))
    points = [verts[0]]
    for _ in range(draw(st.integers(1, 4))):
        picks = draw(st.lists(st.sampled_from(offsets), min_size=4, max_size=4))
        p = [b + sum(o[a] for o in picks) for a, b in enumerate(base)]
        if draw(st.booleans()):
            p[draw(st.integers(0, d - 1))] += draw(st.sampled_from([-1, 1, -unit, unit]))
        points.append(tuple(p))
    points.append(tuple(b + 4 * x for b, x in zip(base, offset())))
    return points, verts


@HULL_SETTINGS
@given(hull_cases())
def test_hull_members_matches_reference_on_big_degenerate_sets(case):
    points, verts = case
    assert hull_members(points, verts) == [in_hull_reference(p, verts) for p in points]


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
