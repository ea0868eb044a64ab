"""Deterministic instance families for testing and benchmarking."""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .geometry import convex_hull_2d, convex_polygon_members, scale_to_integers
from .model import Instance, WeightedPoint

# Rational circle points come from the tan-half-angle map; the parameter is
# snapped to this denominator and capped so coordinates stay small.
_SNAP_DEN = 1024
_T_CAP = 128.0
_MAX_HALVINGS = 64


def gen_uniform(n: int, dimension: int, seed: int, weight_range=(-9, 9)) -> Instance:
    """Seeded uniform instance: distinct grid points, nonzero integer weights.

    The grid side grows with n^2, which makes collinear triples and shared
    coordinates rare without ruling them out; identical arguments always
    reproduce the identical instance.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    lo, hi = int(weight_range[0]), int(weight_range[1])
    if lo > hi or (lo == 0 and hi == 0):
        raise ValueError(f"degenerate weight range [{lo}, {hi}]")
    rng = random.Random(seed)
    grid = max(4 * n * n, 16)
    seen = set()
    rows = []
    while len(rows) < n:
        coords = tuple(rng.randint(0, grid) for _ in range(dimension))
        if coords in seen:
            continue
        seen.add(coords)
        w = 0
        while w == 0:
            w = rng.randint(lo, hi)
        rows.append(WeightedPoint(tuple(Fraction(c) for c in coords), Fraction(w)))
    meta = {
        "family": "uniform",
        "n": n,
        "dimension": dimension,
        "seed": seed,
        "weight_range": [lo, hi],
        "grid": grid,
    }
    return Instance(dimension, tuple(rows), meta)


def _circle_point(t: Fraction):
    den = 1 + t * t
    return ((1 - t * t) / den, 2 * t / den)


def gen_ngon_family(n: int) -> Instance:
    """Adversarial family: n +1 points in convex position ringed by n -1 points.

    The positive points sit exactly on the unit circle (rational via the
    tan-half-angle parameterization), angularly near-uniform.  Each edge
    midpoint is pushed outward along its perpendicular bisector by a factor
    1 + delta to place a -1 point; delta is halved until two facts verify
    exactly: every negative point is strictly outside the positive hull, and
    each segment between consecutive negative points intersects that hull.
    The full polygon is then optimal with weight n.  Every refusal depends on
    n alone and raises ``ValueError``; odd n from 403 up, for one, make two
    capped circle parameters collide.
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    ts = []
    for i in range(n):
        phi = math.pi * (2 * i + 1) / n
        t = math.tan(phi / 2.0)
        t = max(min(t, _T_CAP), -_T_CAP)
        ts.append(Fraction(round(t * _SNAP_DEN), _SNAP_DEN))
    if len(set(ts)) != n:
        raise ValueError(f"circle parameters collide for n={n}")
    vertices = [_circle_point(t) for t in ts]
    hull = convex_hull_2d(vertices)
    if len(hull) != n:
        raise ValueError(f"positive points not in convex position for n={n}")

    mids = []
    for i in range(n):
        a = vertices[i]
        b = vertices[(i + 1) % n]
        mid = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
        if mid == (0, 0):
            raise ValueError("edge midpoint at the circle center")
        mids.append(mid)

    delta = Fraction(1, 2)
    for _ in range(_MAX_HALVINGS):
        scale = 1 + delta
        negs = [(m[0] * scale, m[1] * scale) for m in mids]
        if _ngon_valid(hull, negs):
            break
        delta /= 2
    else:
        raise ValueError(f"no valid offset found for n={n}")

    rows = [WeightedPoint(p, Fraction(1)) for p in vertices]
    rows += [WeightedPoint(p, Fraction(-1)) for p in negs]
    pts = [wp.point for wp in rows]
    if len(set(pts)) != len(pts):
        raise ValueError("generated points collide")
    meta = {"family": "ngon", "n": n, "delta": str(delta)}
    return Instance(2, tuple(rows), meta)


def _ngon_valid(hull, negs) -> bool:
    """Is every negative point strictly outside the hull, and does the closed
    segment between each two consecutive ones meet it?

    Both answers are decided on one integer view of the hull and the ring
    (``scale_to_integers`` keeps every orientation sign).
    """
    pts = scale_to_integers([*hull, *negs])
    ring, negs = pts[: len(hull)], pts[len(hull) :]
    if any(convex_polygon_members(negs, ring)):
        return False
    pairs = zip(negs, negs[1:] + negs[:1])
    return all(_segment_meets_polygon(a, b, ring) for a, b in pairs)


def _segment_meets_polygon(a, b, poly) -> bool:
    """Does the closed segment ab meet the closed convex polygon ``poly``?

    ``poly`` is a counterclockwise cycle of at least three vertices.  The
    segment misses it exactly when every vertex lies strictly on one side of
    line ab, or a and b both lie strictly outside one edge.  Proof: the two
    sets are disjoint exactly when the origin is outside the convex polygon
    poly - ab (their Minkowski difference), that is strictly outside one of
    its edges.  Each edge of poly - ab has the outward normal of an edge of
    poly or one of the two normals of ab.  For the normal u of an edge of
    poly, "strictly outside" reads min(u.a, u.b) > max over poly of u.p,
    which the edge's own line attains: a and b are strictly outside that
    edge.  For a normal u of ab, u.a = u.b, and it reads max over poly of
    u.p < u.a: every vertex is strictly on one side of line ab.
    """
    (ax, ay), (bx, by) = a, b
    dx, dy = bx - ax, by - ay
    cross = [dx * (y - ay) - dy * (x - ax) for x, y in poly]
    if min(cross) > 0 or max(cross) < 0:
        return False
    for (px, py), (qx, qy) in zip(poly[-1:] + poly[:-1], poly):
        ex, ey = qx - px, qy - py
        if ex * (ay - py) < ey * (ax - px) and ex * (by - py) < ey * (bx - px):
            return False
    return True
