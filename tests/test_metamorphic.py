"""Metamorphic relations of the solvers under positive diagonal scalings.

Scaling axis a by its own positive rational f_a is a linear map with a
positive determinant that keeps the order along every axis, so it keeps
every orientation sign, hull and containment.  Scaling every weight by one
positive rational c multiplies every polytope's weight by c and keeps every
comparison between weights.  So every solver must return the same
``chosen``, ``hull`` and ``contained``, and its weight times c.  Denominators
near 2**61 make the integer view of the scaled instance much wider than the
original's.

Lifting a 2D instance to the plane z = 0 of 3-space keeps every hull and
containment, so the oracle must return the same ``chosen``, ``contained``
and weight on the lift (its 3D answer has no 2D hull cycle).
"""

import random
import time
from fractions import Fraction

import pytest

from mwcp.model import Instance, WeightedPoint
from mwcp.oracle import solve_bruteforce
from mwcp.solver1d import solve_1d
from mwcp.solver2d import solve_2d
from support import degenerate_instance_2d, random_instance, random_rational

SOLVERS = {1: (solve_1d, solve_bruteforce), 2: (solve_2d, solve_bruteforce), 3: (solve_bruteforce,)}


def positive_rational(rng):
    """A positive rational, half the time with a denominator near 2**61."""
    if rng.random() < 0.5:
        return Fraction(rng.randint(1, 9), rng.randint(1, 9))
    den = 2**61 - rng.randint(0, 2**20)
    return Fraction(rng.randint(1, 2**62), den)


def instances(rng, d, count):
    """Small canonical instances: grid, rational and, in 2D, degenerate ones."""
    for t in range(count):
        n = rng.randint(1, 9)
        if d == 2 and t % 3:
            yield degenerate_instance_2d(rng, ("collinear", "shared_x", "rational")[t % 3], n)
        elif t % 2:
            pts = {tuple(random_rational(rng, 6, 7) for _ in range(d)) for _ in range(n)}
            yield Instance(d, tuple(
                WeightedPoint(p, Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4)))
                for p in sorted(pts)
            ))
        else:
            yield random_instance(rng, n, d, grid=12 if d == 1 else 4)


def scaled(instance, factors, c):
    return Instance(instance.dimension, tuple(
        WeightedPoint(tuple(x * f for x, f in zip(wp.point, factors)), wp.weight * c)
        for wp in instance.points
    ))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_positive_diagonal_scaling_keeps_the_answer(d):
    rng = random.Random(600 + d)
    solves = 0
    for inst in instances(rng, d, 200):
        factors = [positive_rational(rng) for _ in range(d)]
        c = positive_rational(rng)
        image = scaled(inst, factors, c)
        for solve in SOLVERS[d]:
            for allow_empty in (True, False):
                want = solve(inst, allow_empty=allow_empty)
                got = solve(image, allow_empty=allow_empty)
                assert (got.chosen, got.hull, got.contained) == (
                    want.chosen, want.hull, want.contained
                ), (solve.__name__, inst, factors, c)
                assert got.weight == want.weight * c
                solves += 2
    assert solves == 800 * len(SOLVERS[d])


def test_lift_to_z_zero_keeps_the_oracle_answer():
    rng = random.Random(700)
    for inst in instances(rng, 2, 120):
        lifted = Instance(3, tuple(
            WeightedPoint((*wp.point, Fraction(0)), wp.weight) for wp in inst.points
        ))
        for allow_empty in (True, False):
            want = solve_bruteforce(inst, allow_empty=allow_empty)
            got = solve_bruteforce(lifted, allow_empty=allow_empty)
            assert (got.chosen, got.contained, got.weight) == (
                want.chosen, want.contained, want.weight
            ), inst


def test_random_instance_refuses_an_overfull_grid():
    # 9 distinct points do not fit the 7 points of a 1D grid of 6; the
    # generator must say so before it draws, not loop forever.
    start = time.perf_counter()
    with pytest.raises(ValueError, match="do not fit"):
        random_instance(random.Random(0), 9, 1, grid=6)
    assert time.perf_counter() - start < 1
    assert len(random_instance(random.Random(0), 7, 1, grid=6).points) == 7
