"""The benchmark's ``--trace 1`` mode wraps module-level names of mwcp by
attribute; every name it wraps must stay importable where it looks for it."""

import importlib
import importlib.util
import sys
import types
from pathlib import Path

from mwcp.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_perfbench_run():
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        # Its dataclasses look their module up in sys.modules.
        sys.modules[spec.name] = run
        spec.loader.exec_module(run)
        return run, importlib.import_module("workloads").PROGRAM_MODULES
    finally:
        sys.path.remove(str(PERFBENCH))
        for name in ("perfbench_run", "tracer", "workloads"):
            sys.modules.pop(name, None)


def test_trace_patches_apply_and_unpatch(tmp_path, capsys):
    run, modules = _load_perfbench_run()
    prog = types.SimpleNamespace(
        **{name: importlib.import_module("mwcp." + name) for name in modules}
    )
    tracer = run.Tracer()
    try:
        run.trace_set_up(tracer, prog)
        run.trace_solve_path(tracer, prog)
        patched = list(tracer._patches)
        assert len(patched) == 21
        for namespace, attr, original in patched:
            assert getattr(namespace, attr).__wrapped__ is original
        # One traced solve goes through the wrapped names.
        path = tmp_path / "t.mwcp"
        path.write_text("2 4\n0 0 1\n4 0 1\n2 3 1\n2 1 -1\n")
        tracer.enabled = True
        assert main(["solve", str(path), "--format", "json"]) == 0
        capsys.readouterr()
        names = {span[0] for span in tracer.spans}
        assert {"model.parse_instance", "solver2d.solve_2d", "model.evaluate"} <= names
    finally:
        tracer.unpatch()
    for namespace, attr, original in patched:
        assert getattr(namespace, attr) is original
