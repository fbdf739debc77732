"""Every public function, class and method of the package has a caller outside the tests.

A public top-level name defined in ``src/fedaudit/`` must be referenced from
``src/``, ``scripts/`` or ``perfbench/``, so a twin that only the tests
exercise cannot come back unnoticed. So must a public method of a public
class, through an attribute (``obj.name``): a bare name of the same
spelling may be an unrelated local. The names below are the exceptions,
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


def _public_methods() -> set[tuple[str, str]]:
    """("module.Class", name) of every public method of a public class."""
    methods = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
                methods.update(
                    (f"{path.stem}.{cls.name}", node.name) for node in cls.body
                    if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                )
    return methods


def _references() -> set[tuple[str, str]]:
    """(scope, name) pairs. A bare name counts only in the file that loads it
    (scope: its module name for package files); an imported name counts
    everywhere (scope "*"), and so does an attribute such as ``mdl.loss_many``
    (scope ".")."""
    refs = set()
    for d in CALLER_DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            scope = path.stem if path.parent == PACKAGE else str(path)
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    refs.add((scope, node.id))
                elif isinstance(node, ast.Attribute):
                    refs.add((".", node.attr))
                elif isinstance(node, ast.alias):
                    refs.add(("*", node.name))
    return refs


def test_every_public_name_has_a_caller():
    refs = _references()
    unreferenced = {
        name for name, module in _public_definitions().items()
        if not {("*", name), (".", name), (module, name)} & refs
    }
    assert unreferenced - set(TEST_REFERENCES) == set(), "public names with no caller"
    assert set(TEST_REFERENCES) - unreferenced == set(), "exceptions that have a caller or are gone"


def test_every_public_method_has_a_caller():
    refs = _references()
    unreferenced = {
        f"{owner}.{name}" for owner, name in _public_methods() if (".", name) not in refs
    }
    assert unreferenced == set(), "public methods with no caller"
