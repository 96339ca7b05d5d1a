"""No module of src imports a name it does not use or imports inside a
function, no private helper of src goes unread, every module of src is
reached from the command line, starting the command line imports
neither dataclasses nor inspect, whose imports and generated code would add
to every run's start-up, and only algebra.py knows whether an operation
table is bytes or a tuple.
"""

import ast
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "cbswb")


def _unused_imports(fn):
    """(line, name) of every module-level imported name that the module never reads."""
    with open(os.path.join(SRC, fn)) as fh:
        tree = ast.parse(fh.read(), fn)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_every_imported_name_is_used():
    unused = {fn: _unused_imports(fn) for fn in sorted(os.listdir(SRC)) if fn.endswith(".py")}
    assert {fn: names for fn, names in unused.items() if names} == {}


def test_no_function_imports():
    # a function-level import runs on the function's first call, and one
    # between two modules that import each other hides the cycle
    found = []
    for fn in sorted(os.listdir(SRC)):
        if fn.endswith(".py"):
            with open(os.path.join(SRC, fn)) as fh:
                tree = ast.parse(fh.read(), fn)
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    found += [(fn, node.name, sub.lineno) for sub in ast.walk(node)
                              if isinstance(sub, (ast.Import, ast.ImportFrom))]
    assert found == []


def _private_definitions():
    """(module, name) of every module-level function or class whose name starts with _."""
    out = []
    for fn in sorted(os.listdir(SRC)):
        if fn.endswith(".py"):
            with open(os.path.join(SRC, fn)) as fh:
                tree = ast.parse(fh.read(), fn)
            out += [(fn, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")]
    return out


def _names_read():
    """Every name src reads, as a bare name or as an attribute."""
    read = set()
    for fn in sorted(os.listdir(SRC)):
        if fn.endswith(".py"):
            with open(os.path.join(SRC, fn)) as fh:
                tree = ast.parse(fh.read(), fn)
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
    return read


def test_every_private_helper_is_read():
    read = _names_read()
    assert [d for d in _private_definitions() if d[1] not in read] == []


def test_only_algebra_knows_the_table_format():
    # compose, concat and gather in algebra.py choose between bytes and tuple
    # tables; lattice.py's bitset digits use translate, which is no table test
    found = []
    for fn in sorted(os.listdir(SRC)):
        if fn.endswith(".py") and fn != "algebra.py":
            with open(os.path.join(SRC, fn)) as fh:
                text = fh.read()
            found += [(fn, word) for word in ("BYTE_CARRIER", "is bytes") if word in text]
    assert found == []


def _relative_imports(fn):
    """The modules of src that fn imports relatively, as file names."""
    with open(os.path.join(SRC, fn)) as fh:
        tree = ast.parse(fh.read(), fn)
    return {f"{node.module}.py" for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1}


def test_every_module_is_reached_from_the_cli():
    # a module that only the tests import is a test fixture, and belongs in tests
    reached, todo = set(), ["cli.py"]
    while todo:
        fn = todo.pop()
        if fn not in reached:
            reached.add(fn)
            todo += _relative_imports(fn)
    modules = {fn for fn in os.listdir(SRC) if fn.endswith(".py") and fn != "__init__.py"}
    assert sorted(modules - reached) == []


def _modules_loaded(statement):
    """Which of dataclasses and inspect a fresh interpreter on src holds
    after running statement."""
    probe = f"import sys; {statement}; print(sorted({{'dataclasses', 'inspect'}} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(SRC)}
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=30, env=env, check=True)
    return proc.stdout


def test_the_cli_imports_neither_dataclasses_nor_inspect():
    # a bare interpreter is the baseline, for site may load either module
    assert _modules_loaded("import cbswb.cli") == _modules_loaded("pass")
