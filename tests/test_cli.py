import json
import os
import subprocess
import sys
from pathlib import Path

import mwcp
from mwcp.cli import main, run_bench
from mwcp.model import parse_instance

TRIANGLE = "2 4\n0 0 1\n4 0 1\n2 3 1\n2 1 -1\n"
ONE_D = "1 4\n0 -2\n1 3\n2 -1\n3 4\n"
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


def test_oracle_size_refusal_exit_code(tmp_path, capsys, monkeypatch):
    rows = "\n".join(f"{i} {i * i} 1" for i in range(6))
    path = write(tmp_path, "big.mwcp", f"2 6\n{rows}\n")
    monkeypatch.setenv("MWCP_ORACLE_LIMIT", "3")
    assert main(["solve", path, "--algo", "oracle"]) == 3
    assert "bound of 3" in capsys.readouterr().err
    monkeypatch.delenv("MWCP_ORACLE_LIMIT")
    assert main(["solve", path, "--algo", "oracle"]) == 0
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


def test_bench_csv_and_slope(tmp_path, capsys):
    assert main(["bench", "--algo", "dp2d", "--sizes", "8,12", "--seed", "1"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "algo,n,seed,weight,seconds"
    assert out[1].startswith("dp2d,8,1,")
    assert out[-1].startswith("# loglog_slope=")


def test_run_bench_rows():
    rows, slope = run_bench("dp1d", [16, 32], seed=2, repeats=2)
    assert len(rows) == 4
    assert all(r[0] == "dp1d" for r in rows)


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


def test_solve_2d_under_optimize_flag(tmp_path, capsys):
    # The solver's output checks raise instead of asserting, so -O keeps them.
    path = write(tmp_path, "t.mwcp", TRIANGLE)
    args = ["solve", path, "--algo", "dp2d", "--format", "json"]
    proc = run_module(tmp_path, "-O", "-m", "mwcp", *args)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["weight"] == "2"
    assert main(args) == 0
    assert out == json.loads(capsys.readouterr().out)
