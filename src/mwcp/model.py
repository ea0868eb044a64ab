"""Weighted point-set instances, solutions, preprocessing, and file formats."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction

from .geometry import (
    Point,
    convex_hull_2d,
    point_in_convex_polygon,
    point_in_hull,
    scale_to_integers,
)


@dataclass(frozen=True)
class WeightedPoint:
    """A point with a rational weight (nonzero once canonicalized)."""

    point: Point
    weight: Fraction


@dataclass
class Instance:
    """A weighted point set in a fixed dimension plus provenance metadata.

    Treat as immutable after construction; every operation returns a new
    instance, which keeps concurrent reads safe.
    """

    dimension: int
    points: tuple[WeightedPoint, ...]
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be a positive integer")
        self.points = tuple(self.points)
        for wp in self.points:
            if len(wp.point) != self.dimension:
                raise ValueError(
                    f"point {wp.point} does not match dimension {self.dimension}"
                )

    def positive_indices(self) -> list[int]:
        return [i for i, wp in enumerate(self.points) if wp.weight > 0]


def make_instance(dimension, rows, meta=None) -> Instance:
    """Build an instance from (coords, weight) pairs of ints/Fractions/strings."""
    pts = tuple(
        WeightedPoint(tuple(Fraction(c) for c in coords), Fraction(w))
        for coords, w in rows
    )
    return Instance(dimension, pts, dict(meta or {}))


@dataclass
class Solution:
    """A chosen vertex set with its induced hull, containment, and weight.

    ``chosen`` indexes into the instance point list; ``hull`` is the CCW
    vertex cycle of its convex hull (2D only, None elsewhere); ``contained``
    lists every instance point inside the closed hull; ``weight`` is the sum
    of contained weights.
    """

    chosen: tuple[int, ...]
    hull: tuple[int, ...] | None
    contained: tuple[int, ...]
    weight: Fraction


def empty_solution(dimension: int) -> Solution:
    return Solution((), () if dimension == 2 else None, (), Fraction(0))


def canonicalize(instance: Instance) -> Instance:
    """Merge duplicate coordinates (summing weights) and drop zero weights.

    Point order follows first occurrence.  An already-canonical instance is
    returned as-is, which makes the operation idempotent; otherwise
    ``meta["canonical_index_map"]`` records old index -> new index (None for
    points that were merged away or cancelled to zero weight).
    """
    order: list[Point] = []
    weights: dict[Point, Fraction] = {}
    for wp in instance.points:
        if wp.point not in weights:
            weights[wp.point] = Fraction(0)
            order.append(wp.point)
        weights[wp.point] += wp.weight
    kept = [p for p in order if weights[p] != 0]
    if len(kept) == len(instance.points):
        return instance
    new_index = {p: i for i, p in enumerate(kept)}
    mapping = [new_index.get(wp.point) for wp in instance.points]
    meta = dict(instance.meta)
    meta["canonical_index_map"] = mapping
    pts = tuple(WeightedPoint(p, weights[p]) for p in kept)
    return Instance(instance.dimension, pts, meta)


def require_canonical(instance: Instance) -> None:
    """Raise unless points are pairwise distinct with nonzero weights."""
    seen = set()
    for wp in instance.points:
        if wp.weight == 0 or wp.point in seen:
            raise ValueError("instance is not canonical; run canonicalize() first")
        seen.add(wp.point)


def evaluate(instance: Instance, chosen, *, allow_nonpositive: bool = False) -> Solution:
    """Weight of the convex hull of the chosen points over the whole instance.

    ``contained`` collects every instance point inside the closed hull
    (boundary included).  The chosen set is normally a subset of the
    positive points; verifiers exercising arbitrary subsets pass
    ``allow_nonpositive=True``.  Membership is batched per dimension (an
    interval scan in 1D, hull edges in 2D, exact feasibility above), all of
    it equivalent to a per-point ``point_in_hull`` check.  In 2D the hull and
    membership run on the integer view from ``scale_to_integers``.
    """
    idx = sorted(set(chosen))
    n = len(instance.points)
    for i in idx:
        if not isinstance(i, int) or not 0 <= i < n:
            raise ValueError(f"chosen index {i!r} out of range")
        if not allow_nonpositive and instance.points[i].weight <= 0:
            raise ValueError(f"chosen index {i} has nonpositive weight")
    d = instance.dimension
    if not idx:
        return empty_solution(d)
    pts = [instance.points[i].point for i in idx]
    hull_idx: tuple[int, ...] | None = None
    if d == 1:
        lo = min(p[0] for p in pts)
        hi = max(p[0] for p in pts)
        contained = [
            i for i, wp in enumerate(instance.points) if lo <= wp.point[0] <= hi
        ]
    elif d == 2:
        scaled = scale_to_integers([wp.point for wp in instance.points])
        hull_pts = convex_hull_2d([scaled[i] for i in idx])
        contained = [
            i for i, p in enumerate(scaled) if point_in_convex_polygon(p, hull_pts)
        ]
        back = {}
        for i in idx:
            back.setdefault(scaled[i], i)
        hull_idx = tuple(back[p] for p in hull_pts)
    else:
        contained = [
            i
            for i, wp in enumerate(instance.points)
            if point_in_hull(wp.point, pts)
        ]
        hull_idx = None
    weight = sum((instance.points[i].weight for i in contained), Fraction(0))
    return Solution(tuple(idx), hull_idx, tuple(contained), weight)


def prune_to_maximal(instance: Instance, chosen) -> tuple[int, ...]:
    """Drop vertices whose removal does not strictly decrease the weight.

    Repeats until every remaining vertex is load-bearing, i.e. the set is
    maximal.  On an optimal witness this never changes the weight.
    """
    return prune_by_weight(chosen, lambda kept: evaluate(instance, kept).weight)[0]


def prune_by_weight(chosen, weight_of):
    """The pruning rules of :func:`prune_to_maximal` for any weight function.

    Vertices are tried in ascending index; the first whose removal leaves a
    weight >= the current one is dropped, and the pass restarts until a full
    pass removes nothing.  ``weight_of`` maps a sorted index list to its
    weight.  Returns the kept indices as a sorted tuple and their weight.
    """
    current = sorted(set(chosen))
    if not current:
        return (), 0
    weight = weight_of(current)
    changed = True
    while changed and current:
        changed = False
        for v in current:
            rest = [u for u in current if u != v]
            w = weight_of(rest)
            if w >= weight:
                current = rest
                weight = w
                changed = True
                break
    return tuple(current), weight


def best_singleton(instance: Instance) -> Solution:
    """Best one-point solution over all points, used when S+ is empty but a
    nonempty answer was requested."""
    if not instance.points:
        raise ValueError("instance has no points; no nonempty solution exists")
    best = max(
        range(len(instance.points)),
        key=lambda i: (instance.points[i].weight, -i),
    )
    return evaluate(instance, [best], allow_nonpositive=True)


# ---------------------------------------------------------------------------
# Instance text format:
#   # meta: {...}            optional, JSON on one comment line
#   d n                      header
#   x1 ... xd w              n point lines, exact rationals "p/q" or ints
# Other "#" lines are comments.  Chosen for diffability and exactness.
# ---------------------------------------------------------------------------

class InstanceParseError(ValueError):
    """Malformed instance text; the message names the offending line."""


_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def _parse_rational(token: str, lineno: int) -> Fraction:
    if not _RATIONAL_RE.match(token):
        raise InstanceParseError(f"line {lineno}: {token!r} is not a rational token")
    if "/" in token and token.split("/")[1].lstrip("0") == "":
        raise InstanceParseError(f"line {lineno}: zero denominator in {token!r}")
    return Fraction(token)


def parse_instance(text: str) -> Instance:
    meta: dict = {}
    header = None
    rows: list[WeightedPoint] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("meta:") and header is None and not meta:
                try:
                    meta = json.loads(body[len("meta:"):].strip())
                except json.JSONDecodeError as exc:
                    raise InstanceParseError(f"line {lineno}: bad meta JSON ({exc})")
                if not isinstance(meta, dict):
                    raise InstanceParseError(f"line {lineno}: meta must be a JSON object")
            continue
        tokens = line.split()
        if header is None:
            if len(tokens) != 2 or not all(t.isdigit() for t in tokens):
                raise InstanceParseError(f"line {lineno}: expected header 'd n'")
            d, n = int(tokens[0]), int(tokens[1])
            if d < 1:
                raise InstanceParseError(f"line {lineno}: dimension must be >= 1")
            header = (d, n)
            continue
        d, n = header
        if len(rows) >= n:
            raise InstanceParseError(f"line {lineno}: more than {n} point lines")
        if len(tokens) != d + 1:
            raise InstanceParseError(
                f"line {lineno}: expected {d + 1} fields, got {len(tokens)}"
            )
        coords = tuple(_parse_rational(t, lineno) for t in tokens[:-1])
        rows.append(WeightedPoint(coords, _parse_rational(tokens[-1], lineno)))
    if header is None:
        raise InstanceParseError("line 1: missing header 'd n'")
    if len(rows) != header[1]:
        raise InstanceParseError(
            f"expected {header[1]} point lines, found {len(rows)}"
        )
    return Instance(header[0], tuple(rows), meta)


def write_instance(instance: Instance) -> str:
    lines = []
    if instance.meta:
        lines.append("# meta: " + json.dumps(instance.meta, sort_keys=True))
    lines.append(f"{instance.dimension} {len(instance.points)}")
    for wp in instance.points:
        lines.append(" ".join([str(c) for c in wp.point] + [str(wp.weight)]))
    return "\n".join(lines) + "\n"


def solution_to_json(solution: Solution) -> str:
    obj = {
        "weight": str(solution.weight),
        "chosen": list(solution.chosen),
        "hull": list(solution.hull) if solution.hull is not None else None,
        "contained": list(solution.contained),
    }
    return json.dumps(obj)


def solution_from_json(text: str) -> Solution:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"bad solution JSON: {exc}")
    if not isinstance(obj, dict):
        raise ValueError("solution JSON must be an object")
    try:
        weight = Fraction(str(obj["weight"]))
        chosen = tuple(int(i) for i in obj["chosen"])
        hull = None if obj["hull"] is None else tuple(int(i) for i in obj["hull"])
        contained = tuple(int(i) for i in obj["contained"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad solution JSON: {exc}")
    return Solution(chosen, hull, contained, weight)


def solution_to_text(solution: Solution) -> str:
    hull = "null" if solution.hull is None else list(solution.hull)
    return (
        f"weight = {solution.weight}\n"
        f"chosen = {list(solution.chosen)}\n"
        f"hull = {hull}\n"
        f"contained = {list(solution.contained)}\n"
    )
