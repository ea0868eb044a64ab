"""Exact toolkit for the maximum weight convex polytope problem.

Dimension-specialized exact solvers (1D scan, 2D chain dynamic program), a
brute-force oracle for any dimension, an independent-set hardness-instance
forge with geometric verifiers, and deterministic instance generators.
All arithmetic is exact rational.  Import names from the submodules
(``mwcp.solver2d``, ``mwcp.model`` and so on); the package itself holds
only ``__version__``.
"""

__version__ = "0.1.0"
