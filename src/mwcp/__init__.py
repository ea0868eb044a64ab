"""Exact toolkit for the maximum weight convex polytope problem.

Dimension-specialized exact solvers (1D scan, 2D chain dynamic program), a
brute-force oracle for any dimension, an independent-set hardness-instance
forge with geometric verifiers, and deterministic instance generators.
All arithmetic is exact rational.
"""

from .geometry import convex_hull_2d, point_in_hull, shear_normalize
from .model import (
    Instance,
    InstanceParseError,
    Solution,
    WeightedPoint,
    canonicalize,
    evaluate,
    make_instance,
    parse_instance,
    prune_to_maximal,
    solution_from_json,
    solution_to_json,
    write_instance,
)
from .oracle import OracleSizeError, solve_bruteforce
from .solver1d import solve_1d
from .solver2d import solve_2d
from .reduction import (
    Graph,
    GraphParseError,
    cyclic_embedding,
    decode_solution,
    independence_number,
    make_graph,
    parse_graph,
    reduce_is_to_mwcp,
    verify_edge_gadget,
    write_graph,
)
from .generators import gen_ngon_family, gen_uniform

__version__ = "0.1.0"
