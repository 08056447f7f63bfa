"""Every top-level function and class in ``src/trailnav``, and every
non-dunder method and property of those classes, has a caller in the
program: in ``src/``, ``scripts/`` or the benchmark's non-test modules.
Every module-level constant there is read by one of those files. Tests alone
do not keep a name alive."""

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


def _used_names(reads_only=False):
    """Names the program files mention. With ``reads_only`` only names read
    (load context) count, so an assignment or an import is not a use."""
    used = set()
    for path in _program_files():
        for node in ast.walk(ast.parse(path.read_text())):
            if reads_only and not isinstance(getattr(node, "ctx", None),
                                             ast.Load):
                continue
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rsplit(".", 1)[-1])
    return used


def _unused(defined, reads_only=False):
    """``defined`` maps a name to where it is defined."""
    alive = _used_names(reads_only) | ALLOWED_TEST_ONLY
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


def test_every_module_constant_is_read_by_the_program():
    defined = {}
    for name, tree in _src_trees():
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign)
                       else [])
            for target in targets:
                if isinstance(target, ast.Name) and target.id.isupper():
                    defined[target.id] = f"{name}:{target.id}"
    unused = _unused(defined, reads_only=True)
    assert not unused, f"constants never read by the program: {unused}"
