import collections
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import mwcp
from mwcp import cli, solver2d
from mwcp.cli import main, run_bench
from mwcp.model import parse_instance
from mwcp.solver1d import solve_1d

TRIANGLE = "2 4\n0 0 1\n4 0 1\n2 3 1\n2 1 -1\n"
ONE_D = "1 4\n0 -2\n1 3\n2 -1\n3 4\n"
# Four positive points on one line: the walked top path is 0, 1, 2, 3 and
# the bottom path 0, 1, 3, so 1 is on both paths and 1 and 2 are no vertex.
COLLINEAR = "2 5\n0 0 1\n1 1 1\n2 2 1\n3 3 1\n3 0 -1\n"
K3 = "3 3\n0 1\n1 2\n0 2\n"


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_solve_json_smoke(tmp_path, capsys):
    path = write(tmp_path, "t.mwcp", TRIANGLE)
    assert main(["solve", path, "--algo", "dp2d", "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["weight"] == "2"
    assert set(out) == {"weight", "chosen", "hull", "contained"}


def test_solve_auto_dispatches_1d(tmp_path, capsys):
    path = write(tmp_path, "t.mwcp", ONE_D)
    assert main(["solve", path]) == 0
    out = capsys.readouterr().out
    assert "weight = 6" in out
    assert "hull = null" in out


def test_solve_agreement_dp2d_oracle(tmp_path, capsys):
    path = write(tmp_path, "t.mwcp", TRIANGLE)
    assert main(["solve", path, "--algo", "dp2d", "--format", "json"]) == 0
    a = json.loads(capsys.readouterr().out)
    assert main(["solve", path, "--algo", "oracle", "--format", "json"]) == 0
    b = json.loads(capsys.readouterr().out)
    assert a["weight"] == b["weight"]


def test_solve_nonempty_flag(tmp_path, capsys):
    path = write(tmp_path, "neg.mwcp", "2 2\n0 0 -1\n1 1 -2\n")
    assert main(["solve", path]) == 0
    assert "weight = 0" in capsys.readouterr().out
    assert main(["solve", path, "--nonempty"]) == 0
    assert "weight = -1" in capsys.readouterr().out


def test_parse_error_exit_code(tmp_path, capsys):
    path = write(tmp_path, "bad.mwcp", "not an instance\n")
    assert main(["solve", path]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["solve", str(tmp_path / "missing.mwcp")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("text", ["1 2\n\u0663 1\n\uff17/\u0662 -1\n", "2 \u00b2\n0 0 1\n1 1 1\n"])
def test_parse_error_exit_code_non_ascii_digits(tmp_path, capsys, text):
    path = tmp_path / "digits.mwcp"
    path.write_text(text, encoding="utf-8")
    assert main(["solve", str(path)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "line " in err


def test_oracle_size_refusal_exit_code(tmp_path, capsys, monkeypatch):
    rows = "\n".join(f"{i} {i * i} 1" for i in range(6))
    path = write(tmp_path, "big.mwcp", f"2 6\n{rows}\n")
    monkeypatch.setenv("MWCP_ORACLE_LIMIT", "3")
    assert main(["solve", path, "--algo", "oracle"]) == 3
    assert "bound of 3" in capsys.readouterr().err
    monkeypatch.delenv("MWCP_ORACLE_LIMIT")
    assert main(["solve", path, "--algo", "oracle"]) == 0
    capsys.readouterr()


GEN_UNIFORM = ["gen", "--family", "uniform", "--n", "3"]


@pytest.mark.parametrize("argv", [
    ["gen", "--family", "uniform", "--n", "\u0663"],
    GEN_UNIFORM + ["--dim", "\uff12"],
    GEN_UNIFORM + ["--seed", "\u0663"],
    ["bench", "--sizes", "4", "--repeats", "\u0663"],
])
def test_integer_options_refuse_non_ascii_digits(tmp_path, capsys, argv):
    out = tmp_path / "u.mwcp"
    if argv[0] == "gen":
        argv = argv + ["--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error: argument --" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    GEN_UNIFORM + ["--weights=-\u0663:\u0663"],
    GEN_UNIFORM + ["--weights=-3:\u00b3"],
    ["bench", "--sizes", "\u0663,4"],
    ["bench", "--sizes", "4", "--weights=-\uff13:3"],
])
def test_integer_fields_refuse_non_ascii_digits(tmp_path, capsys, argv):
    out = tmp_path / "u.mwcp"
    if argv[0] == "gen":
        argv = argv + ["--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: bad ") and not captured.out
    assert not out.exists()


def test_oracle_limit_refuses_non_ascii_digits(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "t.mwcp", TRIANGLE)
    monkeypatch.setenv("MWCP_ORACLE_LIMIT", "\u0663")
    assert main(["solve", path, "--algo", "oracle"]) == 2
    assert capsys.readouterr().err == "error: MWCP_ORACLE_LIMIT='\u0663' is not an integer\n"
    monkeypatch.setenv("MWCP_ORACLE_LIMIT", " 2 ")
    assert main(["solve", path, "--algo", "oracle"]) == 3
    capsys.readouterr()


def test_reduce_then_solve_pipeline(tmp_path, capsys):
    gpath = write(tmp_path, "k3.graph", K3)
    ipath = str(tmp_path / "k3.mwcp")
    assert main(["reduce", gpath, ipath]) == 0
    capsys.readouterr()
    assert main(["solve", ipath, "--algo", "oracle", "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["weight"] == "1"


def test_gen_ngon_then_solve(tmp_path, capsys):
    ipath = str(tmp_path / "ngon.mwcp")
    assert main(["gen", "--family", "ngon", "--n", "6", "--out", ipath]) == 0
    capsys.readouterr()
    assert main(["solve", ipath, "--algo", "dp2d", "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["weight"] == "6"
    inst = parse_instance(open(ipath).read())
    assert inst.meta["family"] == "ngon"


def test_gen_unwritable_output_exit_code(tmp_path, capsys):
    out = str(tmp_path / "missing" / "y.mwcp")
    assert main(["gen", "--family", "ngon", "--n", "5", "--out", out]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}")


def test_gen_ngon_refused_n_exit_code(tmp_path, capsys):
    # Odd n from 403 up make two capped circle parameters collide.
    out = tmp_path / "y.mwcp"
    assert main(["gen", "--family", "ngon", "--n", "403", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: circle parameters collide for n=403\n"
    assert not out.exists()


def test_reduce_unwritable_output_exit_code(tmp_path, capsys):
    gpath = write(tmp_path, "k3.graph", K3)
    out = str(tmp_path / "missing" / "o.mwcp")
    assert main(["reduce", gpath, out]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}")


@pytest.mark.parametrize("text", ["\u00b2 0\n", "\u0663 1\n0 \uff12\n"])
def test_reduce_non_ascii_digits_exit_code(tmp_path, capsys, text):
    gpath = tmp_path / "digits.graph"
    gpath.write_text(text, encoding="utf-8")
    assert main(["reduce", str(gpath), str(tmp_path / "o.mwcp")]) == 2
    assert capsys.readouterr().err == "error: line 1: expected header 'n m'\n"


def test_gen_uniform_deterministic(tmp_path):
    a = str(tmp_path / "a.mwcp")
    b = str(tmp_path / "b.mwcp")
    assert main(["gen", "--family", "uniform", "--n", "8", "--seed", "5", "--out", a]) == 0
    assert main(["gen", "--family", "uniform", "--n", "8", "--seed", "5", "--out", b]) == 0
    assert open(a).read() == open(b).read()


def test_verify_gadget(tmp_path, capsys):
    gpath = write(tmp_path, "c4.graph", "4 4\n0 1\n1 2\n2 3\n0 3\n")
    ipath = str(tmp_path / "c4.mwcp")
    assert main(["reduce", gpath, ipath]) == 0
    capsys.readouterr()
    assert main(["verify", "--mode", "gadget", ipath]) == 0
    assert "0 violations" in capsys.readouterr().out


def test_verify_solution_roundtrip(tmp_path, capsys):
    path = write(tmp_path, "t.mwcp", TRIANGLE)
    assert main(["solve", path, "--algo", "dp2d", "--format", "json"]) == 0
    sol_text = capsys.readouterr().out
    spath = write(tmp_path, "t.sol", sol_text)
    assert main(["verify", "--mode", "solution", path, "--solution", spath]) == 0
    capsys.readouterr()
    # tamper with the weight: verification must fail with exit 4
    tampered = json.loads(sol_text)
    tampered["weight"] = "99"
    spath2 = write(tmp_path, "bad.sol", json.dumps(tampered))
    assert main(["verify", "--mode", "solution", path, "--solution", spath2]) == 4
    capsys.readouterr()


@pytest.mark.parametrize("chosen", ['"02"', "[0.7, 2.2]"])
def test_verify_solution_rejects_non_integer_indices(tmp_path, capsys, chosen):
    path = write(tmp_path, "t.mwcp", TRIANGLE)
    spath = write(
        tmp_path,
        "bad.json",
        f'{{"weight": "2", "chosen": {chosen}, "hull": [0, 1, 2], "contained": [0, 1, 2, 3]}}',
    )
    assert main(["verify", "--mode", "solution", path, "--solution", spath]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'chosen' must be a list of integers" in err


def test_bench_csv_and_slope(tmp_path, capsys):
    assert main(["bench", "--algo", "dp2d", "--sizes", "8,12", "--seed", "1"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "algo,n,seed,weight,seconds"
    assert out[1].startswith("dp2d,8,1,")
    assert out[-1].startswith("# loglog_slope=")


@pytest.mark.parametrize(
    "extra", [["--sizes", "5", "--repeats", "0"], ["--sizes", "5", "--repeats", "-2"],
              ["--sizes", ","], ["--sizes", ""]],
)
def test_bench_refuses_empty_runs(extra, capsys):
    assert main(["bench", "--algo", "dp1d", *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_run_bench_refuses_empty_runs():
    for kwargs in ({"repeats": 0}, {"samples": 0}, {"sizes": []}):
        args = {"sizes": [5], "seed": 0, **kwargs}
        with pytest.raises(ValueError):
            run_bench("dp1d", **args)


def test_run_bench_rows():
    rows, slope = run_bench("dp1d", [16, 32], seed=2, repeats=2)
    assert len(rows) == 4
    assert all(r[0] == "dp1d" for r in rows)


def test_run_bench_samples_time_one_instance(monkeypatch):
    seen = []

    def solve(instance, **kwargs):
        seen.append(instance)
        return solve_1d(instance, **kwargs)

    monkeypatch.setattr(cli, "solve_1d", solve)
    rows, _ = run_bench("dp1d", [16, 32], seed=2, repeats=2, samples=3)
    # The CSV keeps one row per instance; the 4 instances are solved 3 times
    # each, round-robin.
    assert [(r[1], r[2]) for r in rows] == [(16, 2), (16, 3), (32, 2), (32, 3)]
    assert len(seen) == 12 and len({id(i) for i in seen}) == 4
    assert all(seen[i] is seen[i % 4] for i in range(12))


def run_module(tmp_path, *args):
    """Run ``python *args`` in a child that imports the same mwcp as this
    process, wherever pytest was started and whether or not the package is
    installed."""
    import_root = str(Path(mwcp.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (import_root, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
    )


def test_module_entry_point(tmp_path):
    path = write(tmp_path, "t.mwcp", ONE_D)
    proc = run_module(tmp_path, "-m", "mwcp", "solve", path, "--format", "json")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["weight"] == "6"


def test_solve_2d_under_optimize_flag(tmp_path, capsys, monkeypatch):
    # The solvers' output checks raise instead of asserting, so -O keeps them.
    walks = {}
    walk = solver2d._walk

    def recorded_walk(ctx, ch, *args):
        walks[ch.sign] = walk(ctx, ch, *args)
        return walks[ch.sign]

    monkeypatch.setattr(solver2d, "_walk", recorded_walk)
    cases = (("dp2d", TRIANGLE, "2"), ("dp2d", COLLINEAR, "4"), ("dp1d", ONE_D, "6"))
    for t, (algo, text, weight) in enumerate(cases):
        path = write(tmp_path, f"case{t}.mwcp", text)
        args = ["solve", path, "--algo", algo, "--format", "json"]
        proc = run_module(tmp_path, "-O", "-m", "mwcp", *args)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out["weight"] == weight
        assert main(args) == 0
        assert out == json.loads(capsys.readouterr().out)
    assert walks == {1: [0, 1, 2, 3], -1: [0, 1, 3]}  # the collinear walk
    # Under -O, solve_1d still raises on a witness that misses the scan.
    child = (
        "import dataclasses, sys\n"
        "import mwcp.solver1d as s1\n"
        "from mwcp.model import parse_instance\n"
        "ev = s1.evaluate\n"
        "def off(*a, **k):\n"
        "    sol = ev(*a, **k)\n"
        "    return dataclasses.replace(sol, weight=sol.weight + 1)\n"
        "s1.evaluate = off\n"
        "s1.solve_1d(parse_instance(sys.argv[1]))\n"
    )
    proc = run_module(tmp_path, "-O", "-c", child, ONE_D)
    assert proc.returncode == 1
    assert "RuntimeError: 1D witness weighs 7, the scan found 6" in proc.stderr


def test_solve_oracle_under_optimize_flag(tmp_path, capsys):
    # The oracle's maximality and lattice-vs-evaluate checks raise instead of
    # asserting, so -O keeps them.  C5 has independence number 2.
    gpath = write(tmp_path, "c5.graph", "5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n")
    ipath = str(tmp_path / "c5.mwcp")
    assert main(["reduce", gpath, ipath]) == 0
    capsys.readouterr()
    proc = run_module(tmp_path, "-O", "-m", "mwcp", "solve", ipath, "--format", "json")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["weight"] == "2"


def test_main_repeated_calls_share_no_state(tmp_path, capsys):
    from mwcp.cli import build_parser

    assert build_parser() is build_parser()
    neg = write(tmp_path, "neg.mwcp", "2 2\n0 0 -1\n1 1 -2\n")
    assert main(["solve", neg, "--nonempty", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["weight"] == "-1"
    # --nonempty and --format from the previous call must not carry over
    assert main(["solve", neg]) == 0
    assert "weight = 0" in capsys.readouterr().out
    out = str(tmp_path / "u.mwcp")
    assert main(["gen", "--family", "uniform", "--n", "5", "--seed", "3", "--out", out]) == 0
    assert "family=uniform n=5" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["solve"])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err
    assert main(["gen", "--family", "ngon", "--n", "5", "--out", out]) == 0
    assert "family=ngon n=5" in capsys.readouterr().out
    assert main(["solve", out, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["weight"] == "5"


FUZZ_TOKENS = [
    "", "-", "+", "/", "0", "-0", "1/0", "0/0", "3/4", "-5/3", "007",
    "99999999999999999999999", "x", "nan", "1e5", "1.5", "#", "2 2", "\t",
    "[", "]", "{", "}", '"', "null", "true", ",", ":", "-1", "4",
]


def mutate(rng, text):
    """One seeded byte-level or token-level mutation of a valid input text."""
    data = bytearray(text.encode())
    kind = rng.randrange(5)
    if kind == 0 and data:
        data[rng.randrange(len(data))] = rng.randrange(256)
    elif kind == 1:
        data.insert(rng.randrange(len(data) + 1), rng.choice(b"0123456789 -/\n#{}[]\",:x"))
    elif kind == 2 and data:
        del data[rng.randrange(len(data))]
    elif kind == 3 and data:
        a = rng.randrange(len(data))
        b = rng.randrange(a, min(len(data), a + 12) + 1)
        data[a:a] = data[a:b]
    else:
        tokens = text.replace("\n", " \n ").split(" ")
        tokens[rng.randrange(len(tokens))] = rng.choice(FUZZ_TOKENS)
        data = bytearray(" ".join(tokens).replace(" \n ", "\n").encode())
    return bytes(data)


def test_cli_fuzz_malformed_inputs(tmp_path, capsys):
    rng = random.Random(20261018)
    gpath = write(tmp_path, "k3.graph", K3)
    ipath4 = str(tmp_path / "k3.mwcp")
    assert main(["reduce", gpath, ipath4]) == 0
    tri = write(tmp_path, "t.mwcp", TRIANGLE)
    assert main(["solve", tri, "--algo", "dp2d", "--format", "json"]) == 0
    solution = capsys.readouterr().out
    fuzz = str(tmp_path / "fuzz")
    out = str(tmp_path / "out.mwcp")
    cases = [
        (TRIANGLE, ["solve", fuzz, "--format", "json"]),
        (TRIANGLE, ["solve", fuzz, "--algo", "dp2d", "--nonempty"]),
        (ONE_D, ["solve", fuzz]),
        (open(ipath4).read(), ["solve", fuzz, "--algo", "oracle"]),
        (K3, ["reduce", fuzz, out]),
        (solution, ["verify", "--mode", "solution", tri, "--solution", fuzz]),
        (TRIANGLE, ["verify", "--mode", "solution", fuzz, "--solution", tri + ".sol"]),
    ]
    with open(tri + ".sol", "w") as fh:
        fh.write(solution)
    codes = collections.Counter()
    for text, argv in cases:
        for _ in range(250):
            with open(fuzz, "wb") as fh:
                fh.write(mutate(rng, text))
            code = main(argv)
            captured = capsys.readouterr()
            assert code in (0, 2, 3, 4), (argv, code)
            assert "Traceback" not in captured.err
            codes[code] += 1
    assert codes[0] and codes[2], codes


META_VALUES = [-1, -7, 0, 1, 2, 3, 8, 9, 10**6, 2.0, "1", None, True, [], [0, 1], {}]


def mutate_meta(rng, meta):
    """Replace one number of the meta's graph or index maps by a seeded choice."""
    meta = json.loads(json.dumps(meta))
    slots = []

    def walk(node):
        for key in range(len(node)) if isinstance(node, list) else node:
            if isinstance(node[key], (list, dict)):
                walk(node[key])
            elif isinstance(node[key], int):
                slots.append((node, key))

    walk({k: meta[k] for k in ("graph", "vertex_point_index", "edge_gadget_index")})
    node, key = rng.choice(slots)
    node[key] = rng.choice(META_VALUES)
    return meta


def test_cli_verify_gadget_refuses_bad_indices(tmp_path, capsys):
    gpath = write(tmp_path, "edge.graph", "3 1\n0 1\n")
    ipath = str(tmp_path / "edge.mwcp")
    assert main(["reduce", gpath, ipath]) == 0
    meta_line, rest = open(ipath).read().split("\n", 1)
    meta = json.loads(meta_line[len("# meta: "):])
    for value in (9, -1):
        meta["edge_gadget_index"][0][0][0] = value
        bad = write(tmp_path, "bad.mwcp", "# meta: " + json.dumps(meta) + "\n" + rest)
        capsys.readouterr()
        assert main(["verify", "--mode", "gadget", bad]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"index {value} " in err
        assert "Traceback" not in err


def test_cli_fuzz_verify_gadget(tmp_path, capsys):
    # A reduced K3 instance, mutated on its meta line or on one point line.
    rng = random.Random(20261019)
    gpath = write(tmp_path, "k3.graph", K3)
    ipath = str(tmp_path / "k3.mwcp")
    assert main(["reduce", gpath, ipath]) == 0
    meta_line, header, *points = open(ipath).read().splitlines()
    meta = json.loads(meta_line[len("# meta: "):])
    fuzz = str(tmp_path / "fuzz")
    codes = collections.Counter()
    for t in range(300):
        lines = [meta_line, header, *points]
        if t % 3 == 0:
            lines[0] = "# meta: " + json.dumps(mutate_meta(rng, meta))
        else:
            at = rng.choice([0] + list(range(2, len(lines))))
            lines[at] = mutate(rng, lines[at]).decode(errors="replace").replace("\n", " ")
        with open(fuzz, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        code = main(["verify", "--mode", "gadget", fuzz])
        captured = capsys.readouterr()
        assert code in (0, 2, 4), (lines, code)
        assert "Traceback" not in captured.err
        codes[code] += 1
    assert codes[0] and codes[2] and codes[4], codes
