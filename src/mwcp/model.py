"""Weighted point-set instances, solutions, preprocessing, and file formats."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm

from .geometry import (
    Point,
    convex_hull_2d,
    convex_polygon_members,
    hull_members,
    scale_to_integers,
)
# Not called here: perfbench/run.py --trace 1 wraps these names in this module.
from .geometry import point_in_convex_polygon, point_in_hull  # noqa: F401


@dataclass(frozen=True)
class WeightedPoint:
    """A point with a rational weight (nonzero once canonicalized)."""

    point: Point
    weight: Fraction


@dataclass
class Instance:
    """A weighted point set in a fixed dimension plus provenance metadata.

    Treat as immutable after construction; every operation returns a new
    instance, which keeps concurrent reads safe.  :attr:`integer_view` is
    cached on first read, out of ``==`` and ``repr``; it depends on
    ``points`` alone, so threads that compute it at once store equal values.
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

    @cached_property
    def integer_view(self) -> tuple[tuple[Point, ...], tuple[int, ...], int]:
        """Read-only ``(coords, weights, weight_scale)``, the one place where
        rationals become ints: the points under ``scale_to_integers``, and
        the weights times ``weight_scale``, the lcm of their denominators."""
        pts = self.points
        scale = lcm(*(wp.weight.denominator for wp in pts))
        return (
            tuple(scale_to_integers([wp.point for wp in pts])),
            tuple(wp.weight.numerator * (scale // wp.weight.denominator) for wp in pts),
            scale,
        )


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
    if _is_canonical(instance):
        return instance
    weights: dict[Point, Fraction] = {}  # in order of first occurrence
    for wp in instance.points:
        weights[wp.point] = weights.get(wp.point, Fraction(0)) + wp.weight
    kept = [p for p, w in weights.items() if w != 0]
    new_index = {p: i for i, p in enumerate(kept)}
    mapping = [new_index.get(wp.point) for wp in instance.points]
    meta = dict(instance.meta)
    meta["canonical_index_map"] = mapping
    pts = tuple(WeightedPoint(p, weights[p]) for p in kept)
    return Instance(instance.dimension, pts, meta)


def _is_canonical(instance: Instance) -> bool:
    """Every weight nonzero and the points pairwise distinct, tested on the
    integer view, whose int tuples hash much faster than ``Fraction``s."""
    coords, weights, _ = instance.integer_view
    return all(weights) and len(set(coords)) == len(coords)


def require_canonical(instance: Instance) -> None:
    """Raise unless points are pairwise distinct with nonzero weights."""
    if not _is_canonical(instance):
        raise ValueError("instance is not canonical; run canonicalize() first")


def evaluate(instance: Instance, chosen, *, allow_nonpositive: bool = False) -> Solution:
    """Weight of the convex hull of the chosen points over the whole instance.

    ``contained`` collects every instance point inside the closed hull
    (boundary included).  The chosen set is normally a subset of the
    positive points; verifiers exercising arbitrary subsets pass
    ``allow_nonpositive=True``.  Membership and the weight sum run on
    :attr:`Instance.integer_view`, batched per dimension, and membership is
    equivalent to a per-point ``point_in_hull`` check.  In 2D the hull and
    ``convex_polygon_members`` decide it with two bisected hull chains;
    otherwise ``hull_members`` does: in 1D with the vertices' interval,
    above 2D with one exact elimination of the vertex and point columns,
    and an exact LP only for the points that an affinely dependent vertex
    set leaves open.
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
    hull_idx: tuple[int, ...] | None = None
    scaled, weights, scale = instance.integer_view
    vertices = [scaled[i] for i in idx]
    if d == 2:
        hull_pts = convex_hull_2d(vertices)
        inside = convex_polygon_members(scaled, hull_pts)
        back = {}
        for i in idx:
            back.setdefault(scaled[i], i)
        hull_idx = tuple(back[p] for p in hull_pts)
    else:
        inside = hull_members(scaled, vertices)
    contained = [i for i, ok in enumerate(inside) if ok]
    weight = Fraction(sum(weights[i] for i in contained), scale)
    return Solution(tuple(idx), hull_idx, tuple(contained), weight)


def prune_to_maximal(instance: Instance, chosen) -> tuple[int, ...]:
    """Drop vertices whose removal does not strictly decrease the weight.

    Repeats until every remaining vertex is load-bearing, i.e. the set is
    maximal.  On an optimal witness this never changes the weight.
    """
    def weigh(kept):
        def trial(dropped):
            return evaluate(instance, [u for u in kept if u != dropped]).weight

        return evaluate(instance, kept).weight, trial

    return prune_by_weight(chosen, weigh)[0]


def prune_by_weight(chosen, weigh):
    """The pruning rules of :func:`prune_to_maximal` for any weight function.

    Vertices are tried in ascending index; the first whose removal leaves a
    weight >= the current one is dropped, and the pass restarts until a full
    pass removes nothing.  ``weigh(kept)`` takes the current set, a sorted
    index list, once per set and returns ``(weight, trial)``: the weight of
    ``kept`` and a function ``trial(v)`` giving the weight of ``kept``
    without v.  Returns the kept indices as a sorted tuple and their weight.
    """
    current = sorted(set(chosen))
    if not current:
        return (), 0
    weight, trial = weigh(current)
    changed = True
    while changed and current:
        changed = False
        for v in current:
            if trial(v) >= weight:
                current = [u for u in current if u != v]
                weight, trial = weigh(current)
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
# Numbers use ASCII digits only.  Other "#" lines are comments.  Chosen for
# diffability and exactness.
# ---------------------------------------------------------------------------

class InstanceParseError(ValueError):
    """Malformed instance text; the message names the offending line."""


# ASCII digits only: ``\d`` in a str pattern matches every Unicode digit.
_RATIONAL_RE = re.compile(r"^([+-]?[0-9]+)(?:/([0-9]+))?$")


def _parse_rational(token: str, lineno: int) -> Fraction:
    """The rational that ``token`` spells, from the regex's own groups."""
    match = _RATIONAL_RE.match(token)
    if not match:
        raise InstanceParseError(f"line {lineno}: {token!r} is not a rational token")
    num, den = match.groups()
    if den is None:
        return Fraction(int(num))
    den = int(den)
    if not den:
        raise InstanceParseError(f"line {lineno}: zero denominator in {token!r}")
    return Fraction(int(num), den)


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
            if len(tokens) != 2 or not all(t.isascii() and t.isdigit() for t in tokens):
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
    """Read :func:`solution_to_json` output.

    ``chosen``, ``contained`` and a non-null ``hull`` must be JSON lists of
    integers; strings, floats and booleans are refused with ``ValueError``.
    ``weight`` must be a string that the instance format reads as a rational.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"bad solution JSON: {exc}")
    if not isinstance(obj, dict):
        raise ValueError("solution JSON must be an object")
    try:
        text = obj["weight"]
        match = _RATIONAL_RE.fullmatch(text) if isinstance(text, str) else None
        if not match or (match[2] is not None and not int(match[2])):
            raise ValueError(f"'weight' must be a rational string, got {text!r}")
        weight = Fraction(text)
        chosen = _index_list(obj, "chosen")
        hull = None if obj["hull"] is None else _index_list(obj, "hull")
        contained = _index_list(obj, "contained")
    except (KeyError, ValueError) as exc:
        raise ValueError(f"bad solution JSON: {exc}")
    return Solution(chosen, hull, contained, weight)


def _index_list(obj, key) -> tuple[int, ...]:
    value = obj[key]
    if not isinstance(value, list) or not all(type(i) is int for i in value):
        raise ValueError(f"{key!r} must be a list of integers, got {value!r}")
    return tuple(value)


def solution_to_text(solution: Solution) -> str:
    hull = "null" if solution.hull is None else list(solution.hull)
    return (
        f"weight = {solution.weight}\n"
        f"chosen = {list(solution.chosen)}\n"
        f"hull = {hull}\n"
        f"contained = {list(solution.contained)}\n"
    )
