"""Shared helpers for the test suite: brute-force references and witness checks."""

from __future__ import annotations

import itertools
from fractions import Fraction

from mwcp.geometry import Orientation, orientation
from mwcp.model import Instance, Solution, WeightedPoint, evaluate


def random_instance(rng, n, dimension, weight_lo=-5, weight_hi=5, grid=None):
    """Random canonical instance: distinct grid points, nonzero weights."""
    grid = grid if grid is not None else max(4 * n, 12)
    seen = set()
    rows = []
    while len(rows) < n:
        coords = tuple(Fraction(rng.randint(0, grid)) for _ in range(dimension))
        if coords in seen:
            continue
        seen.add(coords)
        w = 0
        while w == 0:
            w = rng.randint(weight_lo, weight_hi)
        rows.append(WeightedPoint(coords, Fraction(w)))
    return Instance(dimension, tuple(rows))


def random_rational(rng, span=20, den=8):
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def degenerate_instance_2d(rng, kind, n):
    """Small canonical 2D instance built to hit one degeneracy.

    ``kind`` is "collinear" (most points on one line), "shared_x" (three x
    values, so the solver must shear) or "rational" (small-denominator
    coordinates).  Weights are small rationals of either sign.
    """
    seen = set()
    rows = []
    while len(rows) < n:
        if kind == "collinear" and rng.random() < 0.7:
            a = rng.randint(0, 8)
            p = (Fraction(a), Fraction(2 * a + 1))
        elif kind == "shared_x":
            p = (Fraction(rng.choice([0, 2, 5])), Fraction(rng.randint(0, 6)))
        elif kind == "rational":
            p = (random_rational(rng, 6, 5), random_rational(rng, 6, 5))
        else:
            p = (Fraction(rng.randint(0, 6)), Fraction(rng.randint(0, 6)))
        if p in seen:
            continue
        seen.add(p)
        w = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2, 3]))
        rows.append(WeightedPoint(p, w))
    return Instance(2, tuple(rows))


def in_hull_reference(v, vertices):
    """Independent membership test: search affinely independent subsets of
    size <= d+1 whose simplex contains v (exact barycentric solve)."""
    d = len(v)
    vs = [tuple(Fraction(c) for c in u) for u in vertices]
    if tuple(Fraction(c) for c in v) in vs:
        return True
    for size in range(1, d + 2):
        for subset in itertools.combinations(vs, size):
            coeffs = _barycentric(v, subset)
            if coeffs is not None and all(c >= 0 for c in coeffs):
                return True
    return False


def _barycentric(v, subset):
    """Solve sum l_i u_i = v, sum l_i = 1 exactly; None if no unique solution."""
    d = len(v)
    m = len(subset)
    rows = [[Fraction(u[a]) for u in subset] + [Fraction(v[a])] for a in range(d)]
    rows.append([Fraction(1)] * m + [Fraction(1)])
    # Gauss-Jordan with partial pivoting by nonzero
    pivots = []
    r = 0
    for c in range(m):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            return None  # affinely dependent subset; a smaller one covers it
        rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        rows[r] = [x / piv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    for i in range(r, len(rows)):
        if rows[i][-1] != 0:
            return None  # inconsistent
    return [rows[i][-1] for i in range(m)]


def brute_max_interval(instance):
    """All-intervals reference for the 1D solver, with its exact tie order."""
    n = len(instance.points)
    order = sorted(range(n), key=lambda i: instance.points[i].point[0])
    w = [instance.points[i].weight for i in order]
    best = None  # (weight, s, e)
    for s in range(n):
        acc = Fraction(0)
        for e in range(s, n):
            acc += w[e]
            if best is None or acc > best[0]:
                best = (acc, s, e)
    return best, order


def assert_valid_witness(instance, sol: Solution):
    """Witness validity: reproducible weight, convex CCW hull, maximality."""
    again = evaluate(instance, sol.chosen)
    assert again.weight == sol.weight
    assert tuple(again.contained) == tuple(sol.contained)
    assert set(sol.chosen) <= set(sol.contained)
    if not sol.chosen:
        assert sol.weight == 0
    if instance.dimension == 2:
        assert sol.hull == again.hull
        hull_pts = [instance.points[i].point for i in sol.hull or ()]
        h = len(hull_pts)
        if h >= 3:
            for a in range(h):
                turn = orientation(
                    hull_pts[a], hull_pts[(a + 1) % h], hull_pts[(a + 2) % h]
                )
                assert turn is Orientation.COUNTERCLOCKWISE
        assert set(sol.hull or ()) <= set(sol.chosen)
    for v in sol.chosen:
        rest = [u for u in sol.chosen if u != v]
        assert evaluate(instance, rest).weight < sol.weight, "witness not maximal"
