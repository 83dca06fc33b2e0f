"""The README's "Library use" example runs as written."""
from __future__ import annotations

import re
from pathlib import Path

from wtminer.cli import main
from wtminer.synth import InjectionSpec, generate, write_files

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The first Python block after the "Library use" heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_writes_what_analyze_writes(tmp_path, monkeypatch, capsys):
    generated = generate(InjectionSpec.from_bits("11111", n_cases=20, seed=4))
    write_files(generated, tmp_path / "demo.csv")
    monkeypatch.chdir(tmp_path)
    exec(compile(library_example(), str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 6  # the CTE, then one line per cause
    assert main(["analyze", "--log", "demo.csv", "--out", "cli"]) == 0
    for name in ("report.json", "transitions.csv"):
        assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "cli" / name).read_bytes()
