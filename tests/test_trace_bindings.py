"""The benchmark's ``--trace 1`` mode wraps module-level names of mwcp by
attribute; every name it wraps must stay importable where it looks for it,
and an import that a module never reads must be one of those names."""

import ast
import importlib
import importlib.util
import sys
import types
from pathlib import Path

from mwcp.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mwcp"


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


def _unused_imports(path):
    """Names a module imports and never reads, as pyflakes' F401 finds them."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return imported - read


def test_unused_imports_are_trace_bindings():
    # An import nothing reads is dead code, unless the tracer wraps it there.
    run, modules = _load_perfbench_run()
    prog = types.SimpleNamespace(
        **{name: importlib.import_module("mwcp." + name) for name in modules}
    )
    patched = {}

    class Recorder:
        def patch(self, namespace, attr, name, on_return=None):
            patched.setdefault(namespace.__name__, set()).add(attr)

    run.trace_solve_path(Recorder(), prog)
    for path in sorted(PACKAGE.glob("*.py")):
        module = "mwcp" if path.stem == "__init__" else "mwcp." + path.stem
        unused = _unused_imports(path)
        assert unused <= patched.get(module, set()), (module, unused)
