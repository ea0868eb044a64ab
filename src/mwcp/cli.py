"""Command-line entry point: solve, reduce, gen, verify, bench.

Exit codes: 0 ok, 2 parse/input error, 3 oracle size refusal,
4 verification failure.  All randomness flows through --seed.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
import time

from .generators import gen_ngon_family, gen_uniform
from .model import (
    InstanceParseError,
    canonicalize,
    parse_instance,
    solution_from_json,
    solution_to_json,
    solution_to_text,
    evaluate,
    write_instance,
)
from .oracle import DEFAULT_LIMIT, OracleSizeError, solve_bruteforce
from .reduction import (
    GraphParseError,
    parse_graph,
    reduce_is_to_mwcp,
    verify_edge_gadget,
)
from .solver1d import solve_1d
from .solver2d import solve_2d

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SIZE = 3
EXIT_VERIFY = 4


_INT_RE = re.compile(r"[ \t]*[+-]?[0-9]+[ \t]*")


def _ascii_int(text: str) -> int:
    """The integer ``text`` spells in ASCII digits; ``int`` takes any Unicode digit.

    Integer options and fields use this, as the instance and graph formats
    do; spaces and tabs around the digits are allowed, as ``int`` allows them.
    """
    if not _INT_RE.fullmatch(text):
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    return int(text)


def _oracle_limit() -> int:
    raw = os.environ.get("MWCP_ORACLE_LIMIT")
    if raw is None:
        return DEFAULT_LIMIT
    try:
        return _ascii_int(raw)
    except argparse.ArgumentTypeError:
        raise InstanceParseError(f"MWCP_ORACLE_LIMIT={raw!r} is not an integer")


def _dispatch(instance, algo: str, allow_empty: bool):
    if algo == "auto":
        if instance.dimension == 1:
            algo = "dp1d"
        elif instance.dimension == 2:
            algo = "dp2d"
        else:
            algo = "oracle"
    if algo == "dp1d":
        return solve_1d(instance, allow_empty=allow_empty)
    if algo == "dp2d":
        return solve_2d(instance, allow_empty=allow_empty)
    return solve_bruteforce(
        instance, limit=_oracle_limit(), allow_empty=allow_empty
    )


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InstanceParseError(f"cannot read {path}: {exc}")


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InstanceParseError(f"cannot write {path}: {exc}")


def _cmd_solve(args) -> int:
    instance = canonicalize(parse_instance(_read(args.input)))
    solution = _dispatch(instance, args.algo, not args.nonempty)
    if args.format == "json":
        print(solution_to_json(solution))
    else:
        print(solution_to_text(solution), end="")
    return EXIT_OK


def _cmd_reduce(args) -> int:
    graph = parse_graph(_read(args.graph))
    instance = reduce_is_to_mwcp(graph)
    _write(args.out, write_instance(instance))
    print(f"wrote {args.out}: {len(instance.points)} points in dimension 4")
    return EXIT_OK


def _cmd_gen(args) -> int:
    if args.family == "uniform":
        lo, hi = _parse_weights(args.weights)
        instance = gen_uniform(args.n, args.dim, args.seed, (lo, hi))
    else:
        instance = gen_ngon_family(args.n)
    _write(args.out, write_instance(instance))
    print(f"wrote {args.out}: family={args.family} n={args.n}")
    return EXIT_OK


def _parse_weights(spec: str):
    try:
        lo, hi = spec.split(":")
        return _ascii_int(lo), _ascii_int(hi)
    except (ValueError, argparse.ArgumentTypeError):
        raise InstanceParseError(f"bad weight range {spec!r}, expected 'LO:HI'")


def _cmd_verify(args) -> int:
    instance = parse_instance(_read(args.instance))
    if args.mode == "gadget":
        report = verify_edge_gadget(instance)
        print(
            f"gadget check: {report.subsets_checked} subsets, "
            f"{report.memberships_checked} membership tests, "
            f"{len(report.violations)} violations"
        )
        if not report.ok:
            for v in report.violations[:10]:
                print(f"violation: {v}", file=sys.stderr)
            return EXIT_VERIFY
        return EXIT_OK
    # solution mode: re-evaluate the reported chosen set against the instance
    claimed = solution_from_json(_read(args.solution))
    actual = evaluate(canonicalize(instance), claimed.chosen, allow_nonpositive=True)
    mismatches = []
    if actual.weight != claimed.weight:
        mismatches.append(f"weight: claimed {claimed.weight}, actual {actual.weight}")
    if tuple(actual.contained) != tuple(claimed.contained):
        mismatches.append("contained set mismatch")
    if actual.hull != claimed.hull:
        mismatches.append("hull cycle mismatch")
    if mismatches:
        for msg in mismatches:
            print(f"solution check failed: {msg}", file=sys.stderr)
        return EXIT_VERIFY
    print("solution check: ok")
    return EXIT_OK


def run_bench(algo: str, sizes, seed: int, repeats: int = 1, weights=(-9, 9), samples: int = 1):
    """Time the solver across sizes; returns (csv rows, log-log slope).

    Each size runs ``repeats`` instances (seeds ``seed`` .. ``seed +
    repeats - 1``) and the slope is fitted to their mean times.  Each
    instance is solved ``samples`` times and keeps its fastest time.  The
    samples go round-robin over all instances, so a slow spell of the host
    that spans several solves cannot slow every sample of one size.
    """
    dimension = 1 if algo == "dp1d" else 2
    cases = [
        (n, seed + rep, gen_uniform(n, dimension, seed + rep, weights))
        for n in sizes
        for rep in range(repeats)
    ]
    best = [math.inf] * len(cases)
    found = [None] * len(cases)
    for _ in range(samples):
        for c, (_, _, instance) in enumerate(cases):
            start = time.perf_counter()
            sol = _dispatch(instance, algo, True)
            best[c] = min(best[c], time.perf_counter() - start)
            found[c] = sol.weight
    rows = []
    times = {}
    for (n, s, _), w, t in zip(cases, found, best):
        rows.append((algo, n, s, w, t))
        times.setdefault(n, []).append(t)
    slope = _loglog_slope([(n, sum(ts) / len(ts)) for n, ts in times.items()])
    return rows, slope


def _loglog_slope(means) -> float:
    pts = [(math.log(n), math.log(t)) for n, t in means if t > 0]
    if len(pts) < 2:
        return float("nan")
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    num = sum((x - mx) * (y - my) for x, y in pts)
    den = sum((x - mx) ** 2 for x, _ in pts)
    return num / den if den else float("nan")


def _cmd_bench(args) -> int:
    try:
        sizes = [_ascii_int(s) for s in args.sizes.split(",") if s]
    except argparse.ArgumentTypeError:
        raise InstanceParseError(f"bad sizes {args.sizes!r}, expected 'N1,N2,...'")
    weights = _parse_weights(args.weights)
    rows, slope = run_bench(args.algo, sizes, args.seed, args.repeats, weights)
    print("algo,n,seed,weight,seconds")
    for algo, n, seed, weight, seconds in rows:
        print(f"{algo},{n},{seed},{weight},{seconds:.6f}")
    print(f"# loglog_slope={slope:.3f}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    ``parse_args`` keeps no state between calls, so one parser serves every
    ``main`` call.
    """
    parser = argparse.ArgumentParser(
        prog="mwcp",
        description="Exact maximum weight convex polytope toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance file")
    p.add_argument("input")
    p.add_argument("--algo", choices=["auto", "dp1d", "dp2d", "oracle"], default="auto")
    p.add_argument("--nonempty", action="store_true",
                   help="report the best nonempty solution instead of allowing the empty polytope")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("reduce", help="compile a graph file into a 4D instance")
    p.add_argument("graph")
    p.add_argument("out")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("gen", help="generate an instance family")
    p.add_argument("--family", choices=["uniform", "ngon"], required=True)
    p.add_argument("--n", type=_ascii_int, required=True)
    p.add_argument("--dim", type=_ascii_int, default=2)
    p.add_argument("--seed", type=_ascii_int, default=0)
    p.add_argument("--weights", default="-9:9", help="uniform weight range 'LO:HI'")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify", help="verify gadget geometry or a solution file")
    p.add_argument("--mode", choices=["gadget", "solution"], required=True)
    p.add_argument("instance")
    p.add_argument("--solution", help="solution JSON (required for --mode solution)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bench", help="time a solver across sizes, emit CSV")
    p.add_argument("--algo", choices=["dp1d", "dp2d", "oracle"], default="dp2d")
    p.add_argument("--sizes", default="100,200,400")
    p.add_argument("--seed", type=_ascii_int, default=0)
    p.add_argument("--repeats", type=_ascii_int, default=1)
    p.add_argument("--weights", default="-9:9")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and args.mode == "solution" and not args.solution:
        parser.error("--mode solution requires --solution")
    try:
        return args.func(args)
    except (InstanceParseError, GraphParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OracleSizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE


def entry() -> None:
    raise SystemExit(main())
