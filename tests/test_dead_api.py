"""Every top-level function and class in ``src/trailnav`` has a caller in the
program: in ``src/``, ``scripts/`` or the benchmark's non-test modules. Tests
alone do not keep a name alive."""

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


def test_every_top_level_definition_has_a_program_caller():
    defined = {}
    for path in (ROOT / "src" / "trailnav").glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name] = path.name
    unused = sorted(f"{defined[name]}:{name}"
                    for name in set(defined) - _used_names() - ALLOWED_TEST_ONLY)
    assert not unused, f"defined but never used outside tests: {unused}"
