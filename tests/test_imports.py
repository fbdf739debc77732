"""The package's import graph: no cycle, only the entry points import the
harness, and importing the harness starts none of its worker-pool modules."""

import ast
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fedaudit"


def _package_imports() -> dict[str, set[str]]:
    """Module -> the package modules it imports."""
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    graph = {}
    for path in sorted(PACKAGE.glob("*.py")):
        deps = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                deps |= {node.module} if node.module else {a.name for a in node.names}
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module]
                deps |= {n.split(".", 1)[1] for n in names if n.startswith("fedaudit.")}
        graph[path.stem] = deps & modules
    return graph


def _modules_after(statement: str) -> set[str]:
    """The names in ``sys.modules`` once ``statement`` has run in a fresh interpreter."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    code = f"{statement}\nimport sys\nprint(*sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    return set(done.stdout.split())


def test_no_import_cycle():
    graph, loaded = _package_imports(), set()
    while len(loaded) < len(graph):
        ready = {m for m, deps in graph.items() if m not in loaded and deps <= loaded}
        assert ready, f"import cycle among {sorted(set(graph) - loaded)}"
        loaded |= ready


def test_only_the_entry_points_import_the_harness():
    assert {m for m, deps in _package_imports().items() if "harness" in deps} <= {"__main__"}


def test_config_imports_without_the_harness():
    assert "fedaudit.harness" not in _modules_after("import fedaudit.config")


def test_harness_import_leaves_the_pool_modules_unloaded():
    """A one-job grid never starts a pool, so it need not import one."""
    loaded = _modules_after("import fedaudit.harness")
    assert "fedaudit.harness" in loaded
    assert {"multiprocessing", "concurrent.futures"} & loaded == set()
