"""Every top-level function and class in ``src/trailnav``, and every
non-dunder method and property of those classes, has a caller in the
program: in ``src/``, ``scripts/`` or the benchmark's non-test modules.
Tests alone do not keep a name alive."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Acceptance criterion 8 (tests/test_acceptance.py) is apply_snowfall's caller.
ALLOWED_TEST_ONLY = {"apply_snowfall"}


def _program_files():
    yield from (ROOT / "src" / "trailnav").glob("*.py")
    yield from (ROOT / "scripts").glob("*.py")
    yield from (p for p in (ROOT / "perfbench").glob("*.py")
                if not p.name.startswith("test_"))


def _used_names():
    used = set()
    for path in _program_files():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rsplit(".", 1)[-1])
    return used


def _unused(defined):
    """``defined`` maps a name to where it is defined."""
    alive = _used_names() | ALLOWED_TEST_ONLY
    return sorted(where for name, where in defined.items() if name not in alive)


def _src_trees():
    for path in (ROOT / "src" / "trailnav").glob("*.py"):
        yield path.name, ast.parse(path.read_text())


def test_every_top_level_definition_has_a_program_caller():
    defined = {node.name: f"{name}:{node.name}"
               for name, tree in _src_trees() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    unused = _unused(defined)
    assert not unused, f"defined but never used outside tests: {unused}"


def test_every_method_and_property_has_a_program_caller():
    defined = {}
    for name, tree in _src_trees():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (isinstance(node, ast.FunctionDef)
                        and not node.name.startswith("__")):
                    defined.setdefault(node.name,
                                       f"{name}:{cls.name}.{node.name}")
    unused = _unused(defined)
    assert not unused, f"defined but never used outside tests: {unused}"
