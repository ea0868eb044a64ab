"""Closed-loop benchmark of ``mwcp solve`` on seeded workloads.

One client, one process, no threads: each ``mwcp solve FILE --algo A
--format json`` runs in-process through ``mwcp.cli.main``, and the next
starts when it returns.  Run it from the repository root:

    python3 perfbench/run.py --workload uniform2d --seed 0 --seconds 35 --trace 0

The last line of standard output is the JSON result; the lines before it
describe the run.  ``--trace 1`` spends half the time untraced and half
traced, and reports the per-layer metrics instead of the end-to-end ones.
README.md in this directory explains the workloads and every metric.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from math import comb
from time import perf_counter, process_time

from tracer import Tracer
from workloads import WORKLOADS, CheckFailed, load_program, positives

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, "perfbench", ".work")

# Set-up is short and noisy, so it is repeated and its median reported.
SETUP_REPEATS = 5
# Median seconds of HostSpeed's loop on the machine the benchmark was tuned
# on (2 vCPUs, x86_64, Python 3.11.7); reported times are scaled to it.
REFERENCE_LOOP_S = 0.005
# A solve's time is scaled by the host-speed samples up to this many places
# before and after the one taken just before it.
HOST_WINDOW = 4
# The tail is the highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10

END_TO_END = (
    ("solves_per_s", "1/s"),
    ("solve_p50_s", "s"),
    ("solve_tail_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Times and counts are per traced solve; generator times are per set-up.
PER_LAYER = (
    ("cli.main.self_s", "s/solve"),
    ("model.parse_instance.s", "s/solve"),
    ("model.canonicalize.s", "s/solve"),
    ("model.solution_to_json.s", "s/solve"),
    ("solver2d.solve_2d.self_s", "s/solve"),
    ("solver2d.build_context.s", "s/solve"),
    ("solver2d.precompute_edge_weights.s", "s/solve"),
    ("solver2d.build_angular_lists.s", "s/solve"),
    ("solver2d.compute_first_compatible.s", "s/solve"),
    ("solver2d.candidates", "count/solve"),
    ("solver2d.slab_cells", "count/solve"),
    ("solver2d.coord_bits", "bits"),
    ("solver2d.shear_applied", "ratio"),
    ("model.prune_to_maximal.s", "s/solve"),
    ("model.prune_to_maximal.evaluate_calls", "count/solve"),
    ("model.prune_to_maximal.removals", "count/solve"),
    ("model.prune_to_maximal.useful_frac", "ratio"),
    ("model.evaluate.s", "s/solve"),
    ("model.evaluate.calls", "count/solve"),
    ("geometry.shear_normalize.s", "s/solve"),
    ("geometry.convex_hull_2d.s", "s/solve"),
    ("geometry.convex_hull_2d.calls", "count/solve"),
    ("geometry.point_in_convex_polygon.s", "s/solve"),
    ("geometry.point_in_convex_polygon.calls", "count/solve"),
    ("geometry.point_in_hull.s", "s/solve"),
    ("geometry.point_in_hull.calls", "count/solve"),
    ("oracle.solve_bruteforce.self_s", "s/solve"),
    ("oracle.subsets", "count/solve"),
    ("generators.gen_uniform.s", "s/setup"),
    ("generators.gen_ngon_family.s", "s/setup"),
    ("reduction.reduce_is_to_mwcp.s", "s/setup"),
    ("trace.untraced_solves_per_s", "1/s"),
    ("trace.traced_solves_per_s", "1/s"),
    ("trace.overhead_solves_per_s", "1/s"),
)


@dataclass
class Case:
    path: str
    instance: object
    expected: object


@dataclass
class Sample:
    case: Case
    seconds: float
    host_index: int
    code: object
    out: str
    err: str


@dataclass
class Loop:
    wall: float
    cpu_share: float
    samples: list


class HostSpeed:
    """Tracks how fast the host runs, so that host drift cancels out of the times.

    On a shared machine the same solves run up to a third slower in one
    run than in the next, whatever the seed, which would hide a 10%
    regression.  A fixed loop of Python integer arithmetic that imports
    nothing from mwcp is timed before every solve and every set-up.  A
    scale is the reference loop time over the median of some loop times; a
    time multiplied by it reads as on the reference host.
    """

    def __init__(self):
        self.samples = []

    def sample(self) -> int:
        """Time the loop once; returns the sample's index."""
        start = perf_counter()
        acc = 0
        big = 3**40
        for i in range(1, 20000):
            acc = (acc + big * i - i * i) % 1000003
        self.samples.append(perf_counter() - start)
        return len(self.samples) - 1

    def scale(self) -> float:
        """Scale from every sample of the run."""
        return REFERENCE_LOOP_S / statistics.median(self.samples)

    def scale_near(self, index) -> float:
        """Scale from the samples around ``index``, so it follows drift within a run."""
        near = self.samples[max(0, index - HOST_WINDOW) : index + HOST_WINDOW + 1]
        return REFERENCE_LOOP_S / statistics.median(near)


def set_up(workload, seed, rundir, tracer, host):
    """Import mwcp, generate the pool and write its files, SETUP_REPEATS times.

    Returns the program modules, the cases and, for each repeat, its
    seconds and the index of the host-speed sample taken just before it.
    The references the checks need are computed afterwards, untimed.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(rundir, ignore_errors=True)
        # Free the previous repeat's modules and instances first, so that no
        # repeat pays for collecting another's garbage.
        prog = generated = None
        gc.collect()
        host_index = host.sample()
        start = perf_counter()
        prog = load_program(SRC)
        if tracer is not None:
            trace_set_up(tracer, prog)
            tracer.enabled = True
        generated = workload.generate(prog, seed)
        os.makedirs(rundir)
        paths = []
        for i, (label, instance, _source) in enumerate(generated):
            path = os.path.join(rundir, f"{i:03d}-{label}.mwcp")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(prog.model.write_instance(instance))
            paths.append(path)
        times.append((perf_counter() - start, host_index))
        if tracer is not None:
            tracer.enabled = False
    host.sample()
    expected = workload.expected(prog, seed, [source for _, _, source in generated])
    cases = [
        Case(path, instance, exp)
        for path, (_, instance, _), exp in zip(paths, generated, expected)
    ]
    return prog, cases, times


def run_loop(main, cases, algo, seconds, host):
    """Solve the cases in order, cycling, until ``seconds`` have passed.

    Returns the loop's wall time, the share of it the process spent on a
    CPU, and one sample per solve.  Answers are only recorded here; they
    are checked after the loop.
    """
    samples = []
    cpu_start = process_time()
    start = perf_counter()
    deadline = start + seconds
    i = 0
    while True:
        case = cases[i % len(cases)]
        host_index = host.sample()
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = main(["solve", case.path, "--algo", algo, "--format", "json"])
        except Exception as exc:  # a crash is one failed solve, not the end of the run
            code = f"{type(exc).__name__}: {exc}"
        t1 = perf_counter()
        samples.append(
            Sample(case, t1 - t0, host_index, code, out.getvalue(), err.getvalue())
        )
        i += 1
        if t1 >= deadline:
            wall = t1 - start
            cpu_share = (process_time() - cpu_start) / wall
            host.sample()
            return Loop(wall, cpu_share, samples)


def scaled_latencies(samples, host):
    """Each solve's time, scaled by the host speed measured around it."""
    return [s.seconds * host.scale_near(s.host_index) for s in samples]


def check_samples(prog, workload, samples):
    """Check every answer against its case's reference; returns the failures."""
    failures = []
    for s in samples:
        if s.code != 0:
            failures.append(f"{s.case.path}: exit {s.code}: {s.err.strip()}")
            continue
        try:
            sol = prog.model.solution_from_json(s.out)
            workload.check(prog, s.case.instance, s.case.expected, sol)
        except (CheckFailed, ValueError) as exc:
            failures.append(f"{s.case.path}: {exc}")
    return failures


def tail(latencies):
    """The highest percentile with TAIL_BEYOND samples beyond it.

    Returns (value, percentile, samples beyond).  With too few samples for
    any such percentile, the maximum is returned as percentile 100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def _count_candidates(counts, args, result):
    m = positives(args[0])
    counts["candidates"] += m
    counts["slab_cells"] += 2 * comb(m, 3)


def _count_subsets(counts, args, result):
    counts["subsets"] += 2 ** positives(args[0])


def _count_context(counts, args, ctx):
    counts["contexts"] += 1
    counts["coord_bits"] += max(
        (abs(v).bit_length() for v in (*ctx.xs, *ctx.ys)), default=0
    )
    counts["sheared"] += ctx.shear_k != 1


def _count_removals(counts, args, result):
    counts["removals"] += len(set(args[1])) - len(result)


def trace_set_up(tracer, prog):
    tracer.patch(prog.generators, "gen_uniform", "generators.gen_uniform")
    tracer.patch(prog.generators, "gen_ngon_family", "generators.gen_ngon_family")
    tracer.patch(prog.reduction, "reduce_is_to_mwcp", "reduction.reduce_is_to_mwcp")


def trace_solve_path(tracer, prog):
    """Wrap each public function the solve path calls, in its caller's namespace."""
    cli, model, oracle, solver2d = prog.cli, prog.model, prog.oracle, prog.solver2d
    tracer.patch(cli, "parse_instance", "model.parse_instance")
    tracer.patch(cli, "canonicalize", "model.canonicalize")
    tracer.patch(cli, "solution_to_json", "model.solution_to_json")
    tracer.patch(cli, "solve_2d", "solver2d.solve_2d", _count_candidates)
    tracer.patch(cli, "solve_bruteforce", "oracle.solve_bruteforce", _count_subsets)
    tracer.patch(solver2d, "build_context", "solver2d.build_context", _count_context)
    for fn in ("precompute_edge_weights", "build_angular_lists", "compute_first_compatible"):
        tracer.patch(solver2d, fn, "solver2d." + fn)
    tracer.patch(solver2d, "shear_normalize", "geometry.shear_normalize")
    for caller in (solver2d, oracle):
        tracer.patch(caller, "prune_to_maximal", "model.prune_to_maximal", _count_removals)
        tracer.patch(caller, "evaluate", "model.evaluate")
    tracer.patch(model, "evaluate", "model.evaluate")
    for fn in ("convex_hull_2d", "point_in_convex_polygon", "point_in_hull"):
        tracer.patch(model, fn, "geometry." + fn)


def layer_metrics(tracer, totals, solves, setup_totals, rates, scale):
    """The per-layer metrics; times are multiplied by the host ``scale``.

    ``rates`` (untraced, traced) are already scaled, solve by solve.
    """
    counts = tracer.counts

    def per_solve(name, key="s"):
        return totals.get(name, {}).get(key, 0) / solves

    def per_set_up(name):
        return setup_totals.get(name, {}).get("s", 0.0) / SETUP_REPEATS

    prunes = totals.get("model.prune_to_maximal", {}).get("calls", 0)
    prune_evals = tracer.children_calls("model.prune_to_maximal", "model.evaluate")
    # Each prune evaluates the whole set once; every further evaluate is one
    # attempted removal.
    attempts = prune_evals - prunes
    contexts = counts["contexts"]
    untraced, traced = rates
    values = {
        "solver2d.candidates": counts["candidates"] / solves,
        "solver2d.slab_cells": counts["slab_cells"] / solves,
        "solver2d.coord_bits": counts["coord_bits"] / contexts if contexts else 0,
        "solver2d.shear_applied": counts["sheared"] / contexts if contexts else 0,
        "model.prune_to_maximal.evaluate_calls": prune_evals / solves,
        "model.prune_to_maximal.removals": counts["removals"] / solves,
        "model.prune_to_maximal.useful_frac": counts["removals"] / attempts if attempts else 0,
        "oracle.subsets": counts["subsets"] / solves,
        "trace.untraced_solves_per_s": untraced,
        "trace.traced_solves_per_s": traced,
        "trace.overhead_solves_per_s": untraced - traced,
    }
    for name, unit in PER_LAYER:
        if name in values:
            continue
        layer, _, key = name.rpartition(".")
        if unit == "s/setup":
            values[name] = per_set_up(layer)
        else:
            values[name] = per_solve(layer, key)
    metrics = {}
    for name, unit in PER_LAYER:
        value = values[name] * scale if unit in ("s/solve", "s/setup") else values[name]
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def git_sha(root):
    """Commit id of HEAD read from ``.git``, or None outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                fields = line.split()
                if len(fields) == 2 and fields[1] == ref:
                    return fields[0]
    except OSError:
        return None
    return None


def environment(args):
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def report_failures(failures):
    for msg in failures[:5]:
        print(f"check failed: {msg}", file=sys.stderr)
    if len(failures) > 5:
        print(f"... and {len(failures) - 5} more failed checks", file=sys.stderr)


def run_untraced(args, workload, prog, cases, setup_times, host):
    loop = run_loop(prog.cli.main, cases, workload.algo, args.seconds, host)
    samples = loop.samples
    failures = check_samples(prog, workload, samples)
    verified = len(samples) - len(failures)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def figures(latencies, setups):
        return {
            "solves_per_s": verified / sum(latencies),
            "solve_p50_s": statistics.median(latencies),
            "solve_tail_s": tail(latencies)[0],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
        }

    raw = figures([s.seconds for s in samples], [t for t, _ in setup_times])
    latencies = scaled_latencies(samples, host)
    values = figures(latencies, [t * host.scale_near(k) for t, k in setup_times])
    _, tail_pct, beyond = tail(latencies)
    print(
        f"run: {len(samples)} solves in {loop.wall:.3f} s "
        f"(CPU {loop.cpu_share:.1%} of wall), {len(failures)} failed "
        f"(failed_frac {len(failures) / len(samples):.4f}); "
        f"tail is p{tail_pct:.1f} with {beyond} of {len(samples)} samples beyond it; "
        f"set-up repeats {[round(t, 4) for t, _ in setup_times]}"
    )
    print("raw: " + json.dumps(raw))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return samples, failures, metrics


def run_traced(args, workload, prog, cases, tracer, host):
    """Half the time untraced, then half traced, on the same cases in order."""
    setup_totals, setup_overfull = tracer.summarize()
    tracer.clear()
    half = args.seconds / 2
    untraced = run_loop(prog.cli.main, cases, workload.algo, half, host)
    trace_solve_path(tracer, prog)
    traced_main = tracer.wrap("cli.main", prog.cli.main)
    tracer.enabled = True
    traced = run_loop(traced_main, cases, workload.algo, half, host)
    tracer.enabled = False
    tracer.unpatch()
    totals, overfull = tracer.summarize()
    samples_u, samples_t = untraced.samples, traced.samples
    failures = check_samples(prog, workload, samples_u + samples_t)
    if overfull or setup_overfull:
        failures.append(f"{overfull + setup_overfull} spans are shorter than their children")
    latencies_u = scaled_latencies(samples_u, host)
    latencies_t = scaled_latencies(samples_t, host)
    rates = (len(latencies_u) / sum(latencies_u), len(latencies_t) / sum(latencies_t))
    metrics = layer_metrics(
        tracer, totals, len(samples_t), setup_totals, rates, host.scale()
    )
    self_sum = host.scale() * sum(t["self_s"] for t in totals.values()) / len(samples_t)
    untraced_solve = statistics.mean(latencies_u)
    print(
        f"trace: untraced {len(samples_u)} solves in {untraced.wall:.3f} s, "
        f"traced {len(samples_t)} solves in {traced.wall:.3f} s, {len(tracer.spans)} spans; "
        f"self times sum to {self_sum:.6f} s/solve against {untraced_solve:.6f} s/solve "
        f"untraced, both scaled (difference {self_sum - untraced_solve:+.6f} s is the "
        f"tracing overhead plus noise); 0 spans may exceed their parent, found {overfull}"
    )
    os.makedirs(WORK, exist_ok=True)
    trace_path = os.path.join(WORK, f"trace-{workload.name}-seed{args.seed}.json")
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "env": environment(args),
                "host_scale": host.scale(),
                "metrics": metrics,
                "spans": tracer.spans,
            },
            fh,
        )
    print(f"trace: spans written to {os.path.relpath(trace_path, ROOT)}")
    return samples_u + samples_t, failures, metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mwcp", "cli.py")):
        print(f"error: no mwcp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    rundir = os.path.join(WORK, f"{workload.name}-{args.seed}-{os.getpid()}")
    print("env: " + json.dumps(environment(args)))
    host = HostSpeed()
    try:
        prog, cases, setup_times = set_up(workload, args.seed, rundir, tracer, host)
        if tracer is None:
            samples, failures, metrics = run_untraced(
                args, workload, prog, cases, setup_times, host
            )
        else:
            samples, failures, metrics = run_traced(args, workload, prog, cases, tracer, host)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    print(
        f"host: speed loop median {statistics.median(host.samples):.6f} s over "
        f"{len(host.samples)} samples, reference {REFERENCE_LOOP_S} s; the run's "
        f"scale is {host.scale():.4f}"
    )
    report_failures(failures)
    result = {
        "correct": not failures,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
