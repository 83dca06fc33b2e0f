"""Every definition in `src/wtminer` has a caller in the package or the benchmark.

A helper that only tests call is dead weight: the pipeline never runs it, so
it can drift from what the pipeline does while its tests keep passing. The
scan reads `src/wtminer` and `perfbench/` with `ast` and never looks at
`tests/`:

- a module-level function or class counts as used when its name appears as a
  name, an attribute, an import alias or a string constant (the tracer's
  string stage names);
- the package's own re-exports do not count: the imports in an `__init__.py`
  and the entries of `__all__` name a definition without running it;
- a method or property counts as used when its name appears as an attribute;
- dunder methods are called by the interpreter and are skipped.

That skip hides a checking constructor (`__init__` or `__new__`) that only
tests call. So a class that also defines a private `_from_*` constructor,
which skips the checks, must be constructed directly somewhere in the
package or the benchmark: called by its name, or as `cls(...)` inside the
class.
"""
from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "wtminer"
BENCHMARK = ROOT / "perfbench"


def _trees(*dirs: Path) -> dict[Path, ast.Module]:
    return {
        path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for directory in dirs
        for path in sorted(directory.rglob("*.py"))
    }


def _is_reexport(path: Path, statement: ast.stmt) -> bool:
    if isinstance(statement, (ast.Import, ast.ImportFrom)):
        return path.name == "__init__.py"
    return isinstance(statement, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__" for target in statement.targets
    )


def _uses(trees: dict[Path, ast.Module]) -> tuple[set[str], set[str]]:
    """Names usable by module-level definitions, and attribute names."""
    names: set[str] = set()
    attributes: set[str] = set()
    for path, tree in trees.items():
        statements = [s for s in tree.body if not _is_reexport(path, s)]
        for node in (node for s in statements for node in ast.walk(s)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
                if node.asname:
                    names.add(node.asname)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names | attributes, attributes


def _definitions(trees: dict[Path, ast.Module]):
    """(label, name, is_method) for each module-level function or class and
    each method of a module-level class."""
    for path, tree in trees.items():
        module = path.stem
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield f"{module}.{node.name}", node.name, False
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield f"{module}.{node.name}.{member.name}", member.name, True


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def dead_definitions(defined: list[Path], callers: list[Path]) -> list[str]:
    """Definitions under `defined` with no use anywhere under `callers`."""
    package = _trees(*defined)
    names, attributes = _uses(_trees(*callers))
    return [
        label
        for label, name, is_method in _definitions(package)
        if not _is_dunder(name) and name not in (attributes if is_method else names)
    ]


def _called(nodes) -> set[str]:
    """Names called as `name(...)` or `module.name(...)` anywhere in `nodes`."""
    called: set[str] = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Call):
                if isinstance(node.func, ast.Name):
                    called.add(node.func.id)
                elif isinstance(node.func, ast.Attribute):
                    called.add(node.func.attr)
    return called


def bypassed_constructors(defined: list[Path], callers: list[Path]) -> list[str]:
    """Classes under `defined` with a `_from_*` constructor whose own
    constructor nothing under `callers` calls."""
    called = _called(_trees(*callers).values())
    return [
        f"{path.stem}.{node.name}"
        for path, tree in _trees(*defined).items()
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        and any(
            isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
            and member.name.startswith("_from_")
            for member in node.body
        )
        and node.name not in called
        and "cls" not in _called([node])
    ]


def test_every_definition_has_a_caller_outside_tests():
    assert dead_definitions([PACKAGE], [PACKAGE, BENCHMARK]) == []


def test_every_checked_constructor_has_a_caller_outside_tests():
    assert bypassed_constructors([PACKAGE], [PACKAGE, BENCHMARK]) == []


def test_scan_flags_an_uncalled_method(tmp_path):
    source = (
        "class Box:\n"
        "    def used(self):\n"
        "        return self.helper\n"
        "    @property\n"
        "    def helper(self):\n"
        "        return 1\n"
        "    def unused(self):\n"
        "        return 2\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "def orphan():\n"
        "    return Box().used()\n"
    )
    (tmp_path / "box.py").write_text(source, encoding="utf-8")
    assert dead_definitions([tmp_path], [tmp_path]) == ["box.Box.unused", "box.orphan"]


def test_scan_flags_a_class_built_only_through_its_bypass(tmp_path):
    source = (
        "class Checked:\n"
        "    def __init__(self, x):\n"
        "        self.x = x\n"
        "    @classmethod\n"
        "    def _from_trusted(cls, x):\n"
        "        return object.__new__(cls)\n"
        "class ByName(Checked):\n"
        "    @classmethod\n"
        "    def _from_trusted(cls, x):\n"
        "        return object.__new__(cls)\n"
        "class ByCls(Checked):\n"
        "    @classmethod\n"
        "    def of(cls, x):\n"
        "        return cls(x)\n"
        "    @classmethod\n"
        "    def _from_trusted(cls, x):\n"
        "        return object.__new__(cls)\n"
        "class Plain:\n"
        "    pass\n"
        "def build():\n"
        "    return Checked._from_trusted(1), ByName(2), ByCls.of(3), Plain\n"
    )
    (tmp_path / "box.py").write_text(source, encoding="utf-8")
    assert bypassed_constructors([tmp_path], [tmp_path]) == ["box.Checked"]


def test_scan_does_not_count_the_packages_own_reexports(tmp_path):
    (tmp_path / "box.py").write_text(
        "def exported():\n    return 1\ndef used():\n    return 2\n", encoding="utf-8"
    )
    (tmp_path / "cli.py").write_text(
        "from box import used\nprint(used())\n", encoding="utf-8"
    )
    (tmp_path / "__init__.py").write_text(
        "from box import exported, used\n__all__ = [\"exported\", \"used\"]\n",
        encoding="utf-8",
    )
    assert dead_definitions([tmp_path], [tmp_path]) == ["box.exported"]
