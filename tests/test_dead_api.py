"""Every top-level function and class in ``src/trailnav``, and every
non-dunder method and property of those classes, has a caller in the
program: in ``src/``, ``scripts/`` or the benchmark's non-test modules. A
method counts only where one of those files calls it by name
(``x.name(...)``), so a field or local of the same name does not keep it
alive. Every module-level constant there, and every attribute of a class
there, is read by one of those files. Tests alone do not keep a name
alive, and each allow-list entry below must name a name still defined and
still unused."""

import ast
import builtins
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Acceptance criterion 8 (tests/test_acceptance.py) is apply_snowfall's caller.
ALLOWED_TEST_ONLY = {"apply_snowfall"}

# Imported names a module keeps without reading them, by module. The
# package's __init__.py is exempt: its imports are its re-exports.
ALLOWED_UNREAD_IMPORTS = {
    # perfbench/harness.py patches it in mission; ROADMAP.md item 1 frees it.
    "mission.py": {"build_index"},
}

# Attributes kept although no program file reads them by name.
ALLOWED_UNREAD_ATTRIBUTES = {
    # test_icp checks it bit for bit; ROADMAP.md's per-tick record logs it.
    "RegistrationResult.final_error",
    # ROADMAP.md's windowed path projection starts from it.
    "Projection.seg_index",
}


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


def _top_level_definitions():
    return {node.name: f"{name}:{node.name}"
            for name, tree in _src_trees() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def test_every_top_level_definition_has_a_program_caller():
    unused = _unused(_top_level_definitions())
    assert not unused, f"defined but never used outside tests: {unused}"


def _called_methods():
    """Names the program files call as attributes: ``x.name(...)``."""
    return {node.func.attr for path in _program_files()
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)}


def _is_property(node):
    return any(isinstance(d, ast.Name) and d.id == "property"
               for d in node.decorator_list)


def test_every_method_and_property_has_a_program_caller():
    used = _used_names() | ALLOWED_TEST_ONLY
    called = _called_methods() | ALLOWED_TEST_ONLY
    unused = sorted(
        f"{name}:{cls.name}.{node.name}"
        for name, tree in _src_trees() for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("__")
        and node.name not in (used if _is_property(node) else called))
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


def _unread_imports():
    """The names each module imports and never reads, by module. The
    package's __init__.py is left out."""
    unread = {}
    for name, tree in _src_trees():
        if name == "__init__.py":
            continue
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread[name] = imported - read
    return unread


def test_every_imported_name_is_read_by_its_module():
    unread = [f"{name}:{n}" for name, names in sorted(_unread_imports().items())
              for n in sorted(names - ALLOWED_UNREAD_IMPORTS.get(name, set()))]
    assert not unread, f"imported but never read: {unread}"


def _exception_classes(classes):
    """Names of the classes in ``classes`` (name -> ClassDef) that derive,
    through one another, from a built-in exception."""
    def derives(name, seen=()):
        base = getattr(builtins, name, None)
        if isinstance(base, type) and issubclass(base, BaseException):
            return True
        return name in classes and name not in seen and any(
            isinstance(b, ast.Name) and derives(b.id, (*seen, name))
            for b in classes[name].bases)
    return {name for name in classes if derives(name)}


def _attributes(cls):
    """The dataclass fields and ``self.x =`` targets of a class."""
    names = {node.target.id for node in cls.body
             if isinstance(node, ast.AnnAssign)
             and isinstance(node.target, ast.Name)}
    for node in ast.walk(cls):
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        names |= {t.attr for t in targets if isinstance(t, ast.Attribute)
                  and isinstance(t.value, ast.Name) and t.value.id == "self"}
    return names


def _unread_attributes():
    """``Class.attribute`` -> where it is defined, for every attribute that
    no program file reads. Exception classes are exempt: their attributes
    are fault payloads for whoever catches them."""
    read = {node.attr for path in _program_files()
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    classes = {node.name: (name, node) for name, tree in _src_trees()
               for node in tree.body if isinstance(node, ast.ClassDef)}
    exceptions = _exception_classes({k: c for k, (_, c) in classes.items()})
    return {f"{cls.name}.{attr}": f"{name}:{cls.name}.{attr}"
            for name, cls in classes.values() if cls.name not in exceptions
            for attr in _attributes(cls) if attr not in read}


def test_every_class_attribute_is_read_by_the_program():
    unread = sorted(where for attr, where in _unread_attributes().items()
                    if attr not in ALLOWED_UNREAD_ATTRIBUTES)
    assert not unread, f"attributes never read by the program: {unread}"


def test_every_allow_list_entry_still_names_a_defined_unread_name():
    """An entry goes with its name, or once the program uses the name, so
    the allow-lists only shrink."""
    unused = set(_top_level_definitions()) - _used_names()
    unread_imports = _unread_imports()
    stale = sorted(
        [name for name in ALLOWED_TEST_ONLY if name not in unused]
        + [f"{module}:{name}"
           for module, names in ALLOWED_UNREAD_IMPORTS.items()
           for name in names if name not in unread_imports.get(module, ())]
        + [attr for attr in ALLOWED_UNREAD_ATTRIBUTES
           if attr not in _unread_attributes()])
    assert not stale, f"allow-list entries no longer needed: {stale}"


def _unread_parameters():
    """``module:function.parameter`` for every parameter of a function or
    lambda in ``src/trailnav`` that its body, nested functions included,
    never reads; ``self`` and ``cls`` are exempt."""
    unread = []
    for name, tree in _src_trees():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
                continue
            a = node.args
            params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                      a.vararg, a.kwarg) if p is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            label = getattr(node, "name", f"<lambda:{node.lineno}>")
            unread += [f"{name}:{label}.{p}" for p in params
                       if p not in ("self", "cls") and p not in read]
    return sorted(unread)


def test_every_parameter_is_read_by_its_function():
    unread = _unread_parameters()
    assert not unread, f"parameters never read: {unread}"
