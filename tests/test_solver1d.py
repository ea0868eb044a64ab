import random
from dataclasses import replace

import pytest

import mwcp.solver1d as solver1d
from mwcp.model import make_instance, prune_to_maximal
from mwcp.oracle import solve_bruteforce
from mwcp.solver1d import solve_1d
from support import assert_valid_witness, brute_max_interval, random_instance


def test_example_mixed_weights():
    inst = make_instance(1, [((0,), -2), ((1,), 3), ((2,), -1), ((3,), 4)])
    sol = solve_1d(inst)
    assert sol.weight == 6
    assert sol.contained == (1, 2, 3)
    assert sol.chosen == (1, 3)


def test_all_negative_gives_empty():
    inst = make_instance(1, [((0,), -1), ((1,), -2)])
    sol = solve_1d(inst)
    assert sol.weight == 0
    assert sol.chosen == ()


def test_single_point():
    inst = make_instance(1, [((0,), 5)])
    sol = solve_1d(inst)
    assert sol.weight == 5
    assert sol.chosen == (0,)


def test_nonempty_on_all_negative():
    inst = make_instance(1, [((0,), -3), ((1,), -1)])
    sol = solve_1d(inst, allow_empty=False)
    assert sol.weight == -1
    assert sol.chosen == (1,)


def test_wrong_dimension_rejected():
    with pytest.raises(ValueError):
        solve_1d(make_instance(2, [((0, 0), 1)]))


def test_non_canonical_rejected():
    with pytest.raises(ValueError):
        solve_1d(make_instance(1, [((0,), 1), ((0,), 1)]))


def test_matches_interval_bruteforce_with_ties():
    # Small integer weights, or the same divided by 1..3, give many zero-sum
    # runs and so many optimal intervals to break ties between.
    modes = ((2, False, True), (3, False, False), (4, True, True), (5, True, False))
    for seed, rational, allow_empty in modes:
        rng = random.Random(seed)
        for _ in range(300):
            inst = random_instance(rng, rng.randint(1, 10), 1, -5, 5)
            if rational:
                rows = [replace(wp, weight=wp.weight / rng.randint(1, 3)) for wp in inst.points]
                inst = replace(inst, points=tuple(rows))
            sol = solve_1d(inst, allow_empty=allow_empty)
            (bw, s, e), order = brute_max_interval(inst)
            if bw <= 0 and allow_empty:
                assert sol.weight == 0 and sol.chosen == ()
                continue
            assert sol.weight == bw
            if bw <= 0:
                assert s == e and sol.chosen == (order[s],)
                continue
            assert sol.chosen == prune_to_maximal(inst, {order[s], order[e]})
            assert_valid_witness(inst, sol)


def test_tie_break_pinned():
    # [1, -1, 2]: the runs 0..2 and 2..2 both weigh 2; the last point alone
    # weighs the optimum, so it is the witness.
    sol = solve_1d(make_instance(1, [((0,), 1), ((1,), -1), ((2,), 2)]))
    assert (sol.chosen, sol.contained, sol.weight) == ((2,), (2,), 2)
    # [1, -1, 2, 1]: 0..3 and 2..3 both weigh 3; the smallest start wins and
    # neither endpoint alone weighs 3, so both stay.
    sol = solve_1d(make_instance(1, [((0,), 1), ((1,), -1), ((2,), 2), ((3,), 1)]))
    assert (sol.chosen, sol.contained, sol.weight) == ((0, 3), (0, 1, 2, 3), 3)


def test_matches_oracle():
    rng = random.Random(9)
    for _ in range(100):
        inst = random_instance(rng, rng.randint(1, 12), 1, -4, 4)
        assert solve_1d(inst).weight == solve_bruteforce(inst).weight


def test_interval_endpoints_positive():
    rng = random.Random(15)
    for _ in range(150):
        inst = random_instance(rng, rng.randint(1, 12), 1, -5, 5)
        sol = solve_1d(inst)
        for i in sol.chosen:
            assert inst.points[i].weight > 0


@pytest.mark.parametrize(
    "rows, allow_empty",
    [
        ([((0,), -2), ((1,), 3), ((2,), -1), ((3,), 4)], True),
        # all negative with a nonempty answer: the single-point branch
        ([((0,), -2), ((1,), -1)], False),
    ],
)
def test_witness_weight_mismatch_raises(monkeypatch, rows, allow_empty):
    evaluate = solver1d.evaluate

    def off_by_one(*args, **kwargs):
        sol = evaluate(*args, **kwargs)
        return replace(sol, weight=sol.weight + 1)

    monkeypatch.setattr(solver1d, "evaluate", off_by_one)
    with pytest.raises(RuntimeError, match="the scan found"):
        solve_1d(make_instance(1, rows), allow_empty=allow_empty)
