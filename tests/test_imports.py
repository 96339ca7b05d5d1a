"""No module of src imports a name it does not use.

__init__.py is skipped: its imports are the package's re-exports.
"""

import ast
import os

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
    unused = {fn: _unused_imports(fn) for fn in sorted(os.listdir(SRC))
              if fn.endswith(".py") and fn != "__init__.py"}
    assert {fn: names for fn, names in unused.items() if names} == {}
