"""Every definition in `src/wtminer` has a caller in the package or the benchmark.

A helper that only tests call is dead weight: the pipeline never runs it, so
it can drift from what the pipeline does while its tests keep passing. The
scan reads `src/wtminer` and `perfbench/` with `ast` and never looks at
`tests/`:

- a module-level function or class counts as used when its name appears as a
  name, an attribute, an import alias or a string constant (`__all__` entries
  and the tracer's string stage names);
- a method or property counts as used when its name appears as an attribute;
- dunder methods are called by the interpreter and are skipped.
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


def _uses(trees) -> tuple[set[str], set[str]]:
    """Names usable by module-level definitions, and attribute names."""
    names: set[str] = set()
    attributes: set[str] = set()
    for tree in trees:
        for node in ast.walk(tree):
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
    names, attributes = _uses(_trees(*callers).values())
    return [
        label
        for label, name, is_method in _definitions(package)
        if not _is_dunder(name) and name not in (attributes if is_method else names)
    ]


def test_every_definition_has_a_caller_outside_tests():
    assert dead_definitions([PACKAGE], [PACKAGE, BENCHMARK]) == []


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
