"""Seeded instance pools for the benchmark's workloads, and their answer checks.

Each workload turns the run's ``--seed`` into a pool of instances, which
the benchmark writes to files; the program only ever sees those files.
The checks run after the timed loop.  They re-evaluate each reported
witness and, where the workload knows it, compare the weight with the
optimum.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import random
import sys
import types

PROGRAM_MODULES = (
    "cli", "model", "geometry", "solver2d", "oracle", "reduction", "generators",
)

HERE = os.path.dirname(os.path.abspath(__file__))
UNIFORM_RECORD = os.path.join(HERE, "uniform2d_seed0_weights.json")


class CheckFailed(Exception):
    """An answer that disagrees with its reference."""


def load_program(src_dir):
    """Import mwcp afresh from ``src_dir``; returns its modules by short name.

    Any mwcp module already imported is dropped first, so every call pays
    the full import, as a new ``mwcp`` process would.
    """
    for name in [m for m in sys.modules if m == "mwcp" or m.startswith("mwcp.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module("mwcp." + name) for name in PROGRAM_MODULES}
    origin = os.path.dirname(os.path.abspath(mods["cli"].__file__))
    if origin != os.path.join(os.path.abspath(src_dir), "mwcp"):
        raise ImportError(f"mwcp was imported from {origin}, not from {src_dir}")
    return types.SimpleNamespace(**mods)


def check_witness(prog, instance, sol):
    """Re-evaluate the reported vertices; weight, contained and hull must match."""
    actual = prog.model.evaluate(prog.model.canonicalize(instance), sol.chosen)
    if actual.weight != sol.weight:
        raise CheckFailed(f"witness weighs {actual.weight}, reported {sol.weight}")
    if actual.contained != sol.contained:
        raise CheckFailed("reported contained set differs from the witness's")
    if actual.hull != sol.hull:
        raise CheckFailed("reported hull differs from the witness's")


def positives(instance):
    """|S+|, the number of positive-weight points."""
    return sum(1 for wp in instance.points if wp.weight > 0)


class Uniform2D:
    """gen_uniform(n=200, d=2) on seeds drawn from the run seed; dp2d.

    Solve time grows with about the cube of |S+|, which varies from one
    instance to the next, so a plain random pool would make one seed's run
    slower than another's.  The pool is therefore a stratified sample: of
    ``strata`` instances in a row by |S+|, one is kept.  Every seed's pool
    then follows the |S+| distribution of gen_uniform closely.
    """

    name = "uniform2d"
    algo = "dp2d"
    n = 200
    pool = 48
    strata = 4

    def generate(self, prog, seed):
        rng = random.Random(seed)
        gen = prog.generators.gen_uniform
        # Only the kept instances stay in memory, so that set-up does not
        # set the peak resident memory of the run.
        drawn = []
        for _ in range(self.pool * self.strata):
            s = rng.getrandbits(32)
            drawn.append((positives(gen(self.n, 2, s)), s))
        drawn.sort()
        kept = [s for _, s in drawn[self.strata // 2 :: self.strata]]
        rng.shuffle(kept)
        return [(f"s{s}", gen(self.n, 2, s), s) for s in kept]

    def expected(self, prog, seed, sources):
        """Weights recorded for the default seed; None (no record) otherwise."""
        with open(UNIFORM_RECORD, encoding="utf-8") as fh:
            record = json.load(fh)
        if seed != record["seed"] or record["n"] != self.n:
            return [None] * len(sources)
        by_seed = dict(zip(record["instance_seeds"], record["weights"]))
        return [by_seed[s] for s in sources]

    def check(self, prog, instance, expected, sol):
        check_witness(prog, instance, sol)
        if expected is not None and str(sol.weight) != expected:
            raise CheckFailed(f"weight {sol.weight}, recorded {expected}")


class Ngon2D:
    """gen_ngon_family(n) for every n in 24..32, in an order set by the seed.

    The family is one instance per n, so a run cycles through the nine of
    them and stops part-way through a cycle.  The middle size comes first
    and the others follow in pairs symmetric about it (24 with 32, 25 with
    31, ...), with the seed shuffling the pairs and the order within each.
    Every part of a cycle then has about the same mean size, so where the
    run stops moves neither the rate nor the median much.
    """

    name = "ngon2d"
    algo = "dp2d"
    sizes = range(24, 33)

    def generate(self, prog, seed):
        rng = random.Random(seed)
        sizes = list(self.sizes)
        half = len(sizes) // 2
        pairs = [[sizes[i], sizes[-1 - i]] for i in range(half)]
        rng.shuffle(pairs)
        order = sizes[half : len(sizes) - half]
        for pair in pairs:
            rng.shuffle(pair)
            order += pair
        return [(f"n{n}", prog.generators.gen_ngon_family(n), n) for n in order]

    def expected(self, prog, seed, sources):
        return list(sources)

    def check(self, prog, instance, expected, sol):
        check_witness(prog, instance, sol)
        if sol.weight != expected:
            raise CheckFailed(f"weight {sol.weight}, optimum is {expected}")


class Reduction4D:
    """reduce_is_to_mwcp on seeded G(7, 0.4) graphs; oracle."""

    name = "reduction4d"
    algo = "oracle"
    vertices = 7
    edge_p = 0.4
    pool = 96

    def generate(self, prog, seed):
        rng = random.Random(seed)
        pairs = list(itertools.combinations(range(self.vertices), 2))
        out = []
        for g in range(self.pool):
            edges = [e for e in pairs if rng.random() < self.edge_p]
            graph = prog.reduction.make_graph(self.vertices, edges)
            out.append((f"g{g}", prog.reduction.reduce_is_to_mwcp(graph), graph))
        return out

    def expected(self, prog, seed, sources):
        return [(prog.reduction.independence_number(g), g) for g in sources]

    def check(self, prog, instance, expected, sol):
        alpha, graph = expected
        check_witness(prog, instance, sol)
        if sol.weight != alpha:
            raise CheckFailed(f"weight {sol.weight}, independence number is {alpha}")
        try:
            vertices = prog.reduction.decode_solution(instance, sol)
        except (ValueError, AssertionError) as exc:
            raise CheckFailed(f"witness does not decode: {exc}")
        if len(vertices) != alpha or not prog.reduction.is_independent_set(graph, vertices):
            raise CheckFailed(f"decoded vertices {vertices} are not a maximum independent set")


WORKLOADS = {w.name: w for w in (Uniform2D(), Ngon2D(), Reduction4D())}
