"""The package's memos against README's *Memos* table and the fixture
that clears memos between tests."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import besselid
import conftest

ROOT = Path(__file__).resolve().parents[1]


def _memos() -> dict:
    """{dotted name below besselid: function} of every function with a
    cache_info (an lru_cache memo) defined in a besselid module."""
    out = {}
    for info in pkgutil.walk_packages(besselid.__path__, "besselid."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if (hasattr(obj, "cache_info")
                    and getattr(obj, "__module__", None) == info.name):
                out[f"{info.name.removeprefix('besselid.')}.{name}"] = obj
    return out


def _readme_rows() -> dict:
    """{memo: fixture-clears cell} of README's *Memos* table."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n### Memos\n", 1)[1].split("\n#", 1)[0]
    rows = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            cells = [c.strip() for c in line.strip("|").split("|")]
            rows[cells[0].strip("`")] = cells[-1]
    return rows


def _fixture_clears() -> list:
    """The functions whose cache_clear() tests/conftest.py calls (in its
    one fixture)."""
    return [eval(ast.unparse(node.func.value), vars(conftest))
            for node in ast.walk(ast.parse(inspect.getsource(conftest)))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "cache_clear"]


def test_readme_lists_exactly_the_memos():
    memos, rows = _memos(), _readme_rows()
    assert set(rows) == set(memos)
    assert set(rows.values()) <= {"yes", "no"}


def test_fixture_clears_exactly_the_rows_marked_yes():
    memos, rows = _memos(), _readme_rows()
    cleared = _fixture_clears()
    names = {name for name, fn in memos.items()
             if any(fn is c for c in cleared)}
    assert len(names) == len(cleared)
    assert names == {name for name, mark in rows.items() if mark == "yes"}
