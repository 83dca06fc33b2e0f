"""The unchecked sealing factories are named only where their invariants hold.

`model._sealed_instance` and `decomposition._sealed_decomposition` build a
sealed object without the checks of the public class's `__new__`, so only a
module that establishes what those checks would test may use them:

- `_sealed_instance`: `model` (the checked `ActivityInstance.__new__`),
  `ingest` (it rejects an end before the start and clamps the enabled time
  to the start) and `concurrency` (every enabled time it derives is clamped
  to the start);
- `_sealed_decomposition`: `decomposition`, whose cascade builds the cause
  sets.

The scan reads `src/wtminer` and `perfbench/` with `ast`, as
`test_no_dead_definitions.py` does. Any use counts, not only a call: a
name, an attribute or an import alias. A module-level function named
`_sealed_*` is a factory and must be listed in `ALLOWED`.
"""
from __future__ import annotations

import ast
from pathlib import Path

from test_no_dead_definitions import BENCHMARK, PACKAGE, ROOT, _trees

ALLOWED = {
    "_sealed_instance": {"src/wtminer/model", "src/wtminer/ingest", "src/wtminer/concurrency"},
    "_sealed_decomposition": {"src/wtminer/decomposition"},
}


def _module(root: Path, path: Path) -> str:
    return path.relative_to(root).with_suffix("").as_posix()


def factories(trees: dict[Path, ast.Module]) -> set[str]:
    """The module-level functions named `_sealed_*`."""
    return {
        node.name
        for tree in trees.values()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_sealed_")
    }


def misplaced_uses(
    root: Path, trees: dict[Path, ast.Module], allowed: dict[str, set[str]]
) -> list[str]:
    """`module:line:name` for each use of a factory outside its modules."""
    found = []
    for path, tree in trees.items():
        module = _module(root, path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name.rpartition(".")[2]
            else:
                continue
            if name in allowed and module not in allowed[name]:
                found.append(f"{module}:{node.lineno}:{name}")
    return found


def test_every_factory_is_listed():
    assert factories(_trees(PACKAGE)) == set(ALLOWED)


def test_factories_are_used_only_where_their_invariants_hold():
    assert misplaced_uses(ROOT, _trees(PACKAGE, BENCHMARK), ALLOWED) == []


def test_scan_flags_a_use_outside_the_allowed_modules(tmp_path):
    (tmp_path / "model.py").write_text(
        "def _sealed_thing(x):\n    return x\nY = _sealed_thing(1)\n", encoding="utf-8"
    )
    (tmp_path / "ingest.py").write_text(
        "from model import _sealed_thing\nX = _sealed_thing(2)\n", encoding="utf-8"
    )
    (tmp_path / "report.py").write_text(
        "import model\nfrom model import _sealed_thing as make\n"
        "build = model._sealed_thing\n",
        encoding="utf-8",
    )
    trees = _trees(tmp_path)
    assert factories(trees) == {"_sealed_thing"}
    allowed = {"_sealed_thing": {"model", "ingest"}}
    assert misplaced_uses(tmp_path, trees, allowed) == [
        "report:2:_sealed_thing",
        "report:3:_sealed_thing",
    ]
