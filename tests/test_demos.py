"""Smoke tests: every demo script runs to completion and prints something,
and so does the README's library quick start."""

import pathlib
import runpy

import pytest

ROOT = pathlib.Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_demos_found():
    assert len(DEMOS) >= 6


def test_readme_quick_start_runs(capsys):
    # the python block under "Library quick start", run as written
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Library quick start")[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md quick start", "exec"), {"__name__": "__main__"})
    label, value = capsys.readouterr().out.strip().split(":")
    assert label == "max oracle deviation"
    assert float(value) <= 1e-10
