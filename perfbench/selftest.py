"""Self-test of the benchmark: its answer checks, its tracer and its metric list.

    python3 perfbench/selftest.py

Runs in a few seconds and exits 1 on the first failed test.  It shows
that deliberately corrupted answers are counted as failures, that a
correct answer is not, that span self times add up, and that
BENCHMARK.json declares exactly the metrics run.py reports.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys
from fractions import Fraction

import run
from tracer import Tracer
from workloads import WORKLOADS, load_program

SMALL = {
    "uniform2d": {"n": 24, "pool": 2},
    "ngon2d": {"sizes": range(6, 8)},
    "reduction4d": {"vertices": 5, "pool": 3},
}


def small_workload(name):
    workload = copy.copy(WORKLOADS[name])
    for attr, value in SMALL[name].items():
        setattr(workload, attr, value)
    return workload


def corrupt(text):
    """Wrong answers derived from a correct one, keyed by what was broken."""
    good = json.loads(text)
    heavier = dict(good, weight=str(Fraction(good["weight"]) + 1))
    fewer = dict(good, chosen=good["chosen"][:-1])
    empty = {"weight": "0", "chosen": [], "hull": good["hull"] and [], "contained": []}
    return {"weight+1": heavier, "vertex dropped": fewer, "empty": empty}


def sample(case, out, code=0):
    return run.Sample(case, 0.0, 0, code, out, "")


def test_checks_count_corrupted_answers(prog, tmp):
    for name in WORKLOADS:
        workload = small_workload(name)
        prog_cases = []
        for i, (label, instance, source) in enumerate(workload.generate(prog, 1)):
            path = os.path.join(tmp, f"{name}-{i}-{label}.mwcp")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(prog.model.write_instance(instance))
            prog_cases.append((path, instance, source))
        expected = workload.expected(prog, 1, [src for _, _, src in prog_cases])
        for (path, instance, _), exp in zip(prog_cases, expected):
            case = run.Case(path, instance, exp)
            good = run.run_loop(prog.cli.main, [case], workload.algo, 0, run.HostSpeed()).samples
            assert run.check_samples(prog, workload, good) == [], name
            optimum = Fraction(json.loads(good[0].out)["weight"])
            for what, bad in corrupt(good[0].out).items():
                # Without a reference weight, a self-consistent empty answer
                # cannot be told from a right one; see the recorded-weight test.
                if what == "empty" and (exp is None or optimum == 0):
                    continue
                failures = run.check_samples(prog, workload, [sample(case, json.dumps(bad))])
                assert len(failures) == 1, f"{name}: {what} answer passed the check"
            crashed = sample(case, "", code="RuntimeError: boom")
            assert len(run.check_samples(prog, workload, [crashed])) == 1
            refused = sample(case, "", code=3)
            assert len(run.check_samples(prog, workload, [refused])) == 1


def test_recorded_uniform_weights_catch_a_consistent_wrong_answer(prog, tmp):
    workload = WORKLOADS["uniform2d"]
    label, instance, source = workload.generate(prog, 0)[0]
    expected = workload.expected(prog, 0, [source])[0]
    assert expected is not None, "no recorded weight for the default seed"
    # The empty polytope is self-consistent, so only the record can reject it.
    empty = json.dumps({"weight": "0", "chosen": [], "hull": [], "contained": []})
    case = run.Case(os.path.join(tmp, label), instance, expected)
    failures = run.check_samples(prog, workload, [sample(case, empty)])
    assert len(failures) == 1 and "recorded" in failures[0], failures


def test_self_times_add_up():
    tracer = Tracer()

    def leaf(x):
        return x + 1

    def middle(x):
        return wrapped_leaf(x) + wrapped_leaf(x)

    wrapped_leaf = tracer.wrap("leaf", leaf)
    root = tracer.wrap("root", tracer.wrap("middle", middle))
    tracer.enabled = True
    for x in range(50):
        root(x)
    tracer.enabled = False
    root(0)  # disabled: records nothing
    totals, overfull = tracer.summarize()
    assert overfull == 0
    assert totals["root"]["calls"] == 50 and totals["leaf"]["calls"] == 100
    assert tracer.children_calls("middle", "leaf") == 100
    self_sum = sum(t["self_s"] for t in totals.values())
    assert abs(self_sum - totals["root"]["s"]) < 1e-9


def test_tail_has_ten_samples_beyond():
    values, pct, beyond = run.tail(list(range(40)))
    assert (values, pct, beyond) == (29, 75.0, 10)
    assert sum(1 for v in range(40) if v > values) == 10
    assert run.tail([3, 1, 2]) == (3, 100.0, 0)


def test_benchmark_json_matches_reported_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    assert declared == list(run.END_TO_END), declared
    declared = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert declared == list(run.PER_LAYER), declared
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def main() -> int:
    sys.path.insert(0, run.SRC)
    prog = load_program(run.SRC)
    tmp = os.path.join(run.WORK, f"selftest-{os.getpid()}")
    os.makedirs(tmp)
    tests = [
        (test_checks_count_corrupted_answers, (prog, tmp)),
        (test_recorded_uniform_weights_catch_a_consistent_wrong_answer, (prog, tmp)),
        (test_self_times_add_up, ()),
        (test_tail_has_ten_samples_beyond, ()),
        (test_benchmark_json_matches_reported_metrics, ()),
    ]
    try:
        for test, args in tests:
            test(*args)
            print(f"ok {test.__name__}")
    except AssertionError as exc:
        print(f"FAILED {test.__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
