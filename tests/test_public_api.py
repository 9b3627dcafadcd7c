"""Every public name earns its place: each export of `steinshrink` is called
outside its own definition by a package module or the benchmark harness,
or has a line in the README's "Library-only API" section."""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "steinshrink"


def _modules():
    return [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]


def _exports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return [a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom)
            for a in node.names]


def _called():
    """Names referenced in the package modules and `bench/`, each reference
    outside the top-level definition of that same name (imports do not count)."""
    names = set()
    for path in _modules() + sorted((ROOT / "bench").glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            refs = set()
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    refs.add(node.id)
                elif isinstance(node, ast.Attribute):
                    refs.add(node.attr)
            refs.discard(getattr(top, "name", None))
            names |= refs
    return names


def _library_only():
    """The names the README's "Library-only API" section gives a line each."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library-only API", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^- `([\w.]+)`:", section, flags=re.MULTILINE)


def test_every_export_has_a_caller_or_a_readme_line():
    called, listed = _called(), _library_only()
    assert len(listed) == len(set(listed))
    assert [name for name in _exports() if name not in called and name not in listed] == []


def test_every_library_only_line_names_a_public_name_with_no_caller():
    called, exports = _called(), set(_exports())
    modules = [importlib.import_module(f"steinshrink.{p.stem}") for p in _modules()]
    for name in _library_only():
        owner, _, attr = name.rpartition(".")
        if owner:  # a method of a package class
            assert any(hasattr(getattr(m, owner, None), attr) for m in modules), name
        else:
            assert name in exports and name not in called, name
