"""Independent-set hardness instances: moment-curve embedding plus edge gadgets.

A graph on n vertices maps to a 4D instance whose positive (+1) points are
the moment-curve points (i, i^2, i^3, i^4); their hull is the cyclic
polytope, which carries every vertex pair as a polytope edge.  Each graph
edge gets two weight -1 points placed in its interior, so a vertex subset
encloses a negative point exactly when it contains both endpoints of that
edge.  The optimum of the produced instance therefore equals the graph's
independence number, and maximal witnesses decode back to independent sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .geometry import Point, hull_members, scale_to_integers
from .model import Instance, Solution, WeightedPoint, evaluate

GADGET_T1 = Fraction(1, 3)
GADGET_T2 = Fraction(2, 3)
GADGET_VERIFY_MAX_VERTICES = 8


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; edges normalized to sorted unique pairs."""

    n_vertices: int
    edges: tuple[tuple[int, int], ...]


class GraphParseError(ValueError):
    """Malformed graph text; the message names the offending line."""


def make_graph(n_vertices: int, edges) -> Graph:
    if n_vertices < 1:
        raise ValueError("graph needs at least one vertex")
    norm = set()
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n_vertices and 0 <= v < n_vertices):
            raise ValueError(f"edge ({u}, {v}) out of range")
        norm.add((min(u, v), max(u, v)))
    return Graph(n_vertices, tuple(sorted(norm)))


def parse_graph(text: str) -> Graph:
    """Read 'n m' then m lines 'u v' (0-indexed); '#' lines are comments."""
    header = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if header is None:
            if len(tokens) != 2 or not all(t.isascii() and t.isdigit() for t in tokens):
                raise GraphParseError(f"line {lineno}: expected header 'n m'")
            header = (int(tokens[0]), int(tokens[1]))
            continue
        if len(tokens) != 2 or not all(t.isascii() and t.isdigit() for t in tokens):
            raise GraphParseError(f"line {lineno}: expected edge 'u v'")
        edges.append((int(tokens[0]), int(tokens[1])))
    if header is None:
        raise GraphParseError("line 1: missing header 'n m'")
    if len(edges) != header[1]:
        raise GraphParseError(f"expected {header[1]} edges, found {len(edges)}")
    try:
        return make_graph(header[0], edges)
    except ValueError as exc:
        raise GraphParseError(str(exc))


def write_graph(graph: Graph) -> str:
    lines = [f"{graph.n_vertices} {len(graph.edges)}"]
    lines += [f"{u} {v}" for u, v in graph.edges]
    return "\n".join(lines) + "\n"


def is_independent_set(graph: Graph, vertices) -> bool:
    s = set(vertices)
    return all(not (u in s and v in s) for u, v in graph.edges)


def independence_number(graph: Graph) -> int:
    """Exhaustive maximum independent set size (bitmask search, n <= 24)."""
    n = graph.n_vertices
    if n > 24:
        raise ValueError("exhaustive independence number limited to 24 vertices")
    adj = [0] * n
    for u, v in graph.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    best = 0
    for mask in range(1 << n):
        size = mask.bit_count()
        if size <= best:
            continue
        ok = True
        rest = mask
        while rest:
            b = rest & -rest
            v = b.bit_length() - 1
            if adj[v] & mask:
                ok = False
                break
            rest ^= b
        if ok:
            best = size
    return best


def cyclic_embedding(n: int) -> list[Point]:
    """Moment-curve points (i, i^2, i^3, i^4) for i = 1..n, exact integers."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return [
        (Fraction(i), Fraction(i * i), Fraction(i**3), Fraction(i**4))
        for i in range(1, n + 1)
    ]


def reduce_is_to_mwcp(graph: Graph) -> Instance:
    """Compile a maximum-independent-set instance into a 4D instance.

    Produces n positive points, the cyclic embedding, and 2|E| negative
    ones, the points at ``GADGET_T1`` and ``GADGET_T2`` along each edge;
    meta records the source graph and both index maps so solutions can be
    decoded and the gadget geometry re-verified.
    """
    verts = cyclic_embedding(graph.n_vertices)
    rows = [WeightedPoint(p, Fraction(1)) for p in verts]
    edge_gadget_index = []
    for u, v in graph.edges:
        edge_gadget_index.append([[u, v], [len(rows), len(rows) + 1]])
        for t in (GADGET_T1, GADGET_T2):
            p = tuple(ac + (bc - ac) * t for ac, bc in zip(verts[u], verts[v]))
            rows.append(WeightedPoint(p, Fraction(-1)))
    meta = {
        "generator": "independent_set_reduction",
        "graph": {
            "n_vertices": graph.n_vertices,
            "edges": [[u, v] for u, v in graph.edges],
        },
        "vertex_point_index": list(range(graph.n_vertices)),
        "edge_gadget_index": edge_gadget_index,
        "gadget_positions": [str(GADGET_T1), str(GADGET_T2)],
    }
    return Instance(4, tuple(rows), meta)


def _reduction_maps(instance: Instance):
    """The graph and index maps that a reduced instance's meta records.

    Every index, in the graph's edges as in the two index maps, must be an
    int in range: a vertex below the graph's vertex count, a point below the
    instance's point count.  ``vertex_point_index`` names one point per
    vertex.  Anything else raises ``ValueError``.
    """
    meta = instance.meta
    n_points = len(instance.points)
    try:
        n_vertices = meta["graph"]["n_vertices"]
        if type(n_vertices) is not int:
            raise ValueError(f"vertex count {n_vertices!r} is not an int")
        graph = make_graph(
            n_vertices,
            [(_index(u, n_vertices, "vertex"), _index(v, n_vertices, "vertex"))
             for u, v in meta["graph"]["edges"]],
        )
        vertex_index = [_index(i, n_points, "point") for i in meta["vertex_point_index"]]
        if len(vertex_index) != n_vertices:
            raise ValueError(f"{len(vertex_index)} vertex points for {n_vertices} vertices")
        edge_gadgets = [
            (
                (_index(e[0][0], n_vertices, "vertex"), _index(e[0][1], n_vertices, "vertex")),
                (_index(e[1][0], n_points, "point"), _index(e[1][1], n_points, "point")),
            )
            for e in meta["edge_gadget_index"]
        ]
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ValueError(
            f"instance meta does not describe an independent-set reduction ({exc})"
        )
    return graph, vertex_index, edge_gadgets


def _index(value, bound: int, what: str) -> int:
    """``value`` if it is an int in [0, bound), else ``ValueError``."""
    if type(value) is not int or not 0 <= value < bound:
        raise ValueError(f"{what} index {value!r} is not an int in [0, {bound})")
    return value


def decode_solution(instance: Instance, solution: Solution) -> tuple[int, ...]:
    """Map a maximal solution of a reduced instance back to graph vertices.

    Refuses non-maximal inputs (a dominated vertex would break the
    correspondence).  The returned vertex set is independent and its size
    equals the solution weight; both are checked, raising ``ValueError``, so
    the checks hold under ``python -O``.
    """
    graph, vertex_index, _ = _reduction_maps(instance)
    point_to_vertex = {idx: v for v, idx in enumerate(vertex_index)}
    for i in solution.chosen:
        if i not in point_to_vertex:
            raise ValueError(f"chosen index {i} is not a vertex point")
    for i in solution.chosen:
        rest = [u for u in solution.chosen if u != i]
        if evaluate(instance, rest).weight >= solution.weight:
            raise ValueError(
                f"solution is not maximal: dropping point {i} does not decrease weight"
            )
    vertices = tuple(sorted(point_to_vertex[i] for i in solution.chosen))
    if not is_independent_set(graph, vertices):
        raise ValueError(f"decoded vertices {list(vertices)} are not independent")
    if len(vertices) != solution.weight:
        raise ValueError(
            f"decoded {len(vertices)} vertices, but the solution weighs {solution.weight}"
        )
    return vertices


@dataclass
class GadgetReport:
    """Outcome of the exhaustive edge-gadget containment check."""

    n_vertices: int
    n_edges: int
    subsets_checked: int
    memberships_checked: int
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_edge_gadget(instance: Instance) -> GadgetReport:
    """Check, for every vertex subset C and negative point g of edge (u, v),
    that g lies in conv(C) exactly when both u and v are in C.

    Exhaustive over all 2^n subsets, so n is bounded by
    ``GADGET_VERIFY_MAX_VERTICES``.
    The instance is scaled to integers once, and each subset decides all
    gadget points with one call of ``hull_members``.  Violations are
    reported with their witness subset; a clean report means the
    reduction's containment claim holds for this instance.
    """
    graph, vertex_index, edge_gadgets = _reduction_maps(instance)
    n = graph.n_vertices
    if n > GADGET_VERIFY_MAX_VERTICES:
        raise ValueError(f"gadget verification limited to {GADGET_VERIFY_MAX_VERTICES} vertices")
    scaled = scale_to_integers([wp.point for wp in instance.points])
    gadget_points = [scaled[gi] for _, gadget_idx in edge_gadgets for gi in gadget_idx]
    violations = []
    subsets = 0
    memberships = 0
    for mask in range(1 << n):
        subsets += 1
        chosen = [v for v in range(n) if mask >> v & 1]
        pts = [scaled[vertex_index[v]] for v in chosen]
        inside = iter(hull_members(gadget_points, pts) if pts else [False] * len(gadget_points))
        in_c = [bool(mask >> v & 1) for v in range(n)]
        for (u, v), gadget_idx in edge_gadgets:
            expected = in_c[u] and in_c[v]
            for gi in gadget_idx:
                actual = next(inside)
                memberships += 1
                if actual != expected:
                    violations.append(
                        {
                            "subset": chosen,
                            "edge": (u, v),
                            "gadget_point": gi,
                            "expected": expected,
                            "actual": actual,
                        }
                    )
    return GadgetReport(n, len(graph.edges), subsets, memberships, violations)
