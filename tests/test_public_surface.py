"""Every public function and class of the package has a caller outside the tests.

A public top-level name defined in ``src/fedaudit/`` must be referenced from
``src/``, ``scripts/`` or ``perfbench/``, so a twin that only the tests
exercise cannot come back unnoticed. The names below are the exceptions,
each kept for a reason.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fedaudit"
CALLER_DIRS = ("src", "scripts", "perfbench")

TEST_REFERENCES = {
    "score_round": "declared per-layer metric of the benchmark (attack.score_round.s)",
    "summary": "declared per-layer metric of the benchmark (numstat.summary.calls)",
    "fedmia_scores": "declared per-layer metric of the benchmark (attack.fedmia_scores.*)",
    "auc": "declared per-layer metric of the benchmark (metrics.auc.calls)",
    "operating_point": "declared per-layer metric of the benchmark (metrics.operating_point.calls)",
}


def _public_definitions() -> dict[str, str]:
    """Public top-level function and class names -> defining module."""
    defs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defs[node.name] = path.stem
    return defs


def _references() -> set[tuple[str, str]]:
    """(scope, name) pairs. A bare name counts only in the file that loads it
    (scope: its module name for package files); an attribute such as
    ``mdl.loss_many`` or an imported name counts everywhere (scope "*")."""
    refs = set()
    for d in CALLER_DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            scope = path.stem if path.parent == PACKAGE else str(path)
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    refs.add((scope, node.id))
                elif isinstance(node, ast.Attribute):
                    refs.add(("*", node.attr))
                elif isinstance(node, ast.alias):
                    refs.add(("*", node.name))
    return refs


def test_every_public_name_has_a_caller():
    refs = _references()
    unreferenced = {
        name for name, module in _public_definitions().items()
        if ("*", name) not in refs and (module, name) not in refs
    }
    assert unreferenced - set(TEST_REFERENCES) == set(), "public names with no caller"
    assert set(TEST_REFERENCES) - unreferenced == set(), "exceptions that have a caller or are gone"
