"""Guard against dead library surface: every top-level function and class in
`src/magpsido` must be used by some package code outside its own definition.

Only uses count (names and attribute lookups read by code); an import or a
re-export alone does not, so a definition cannot stay alive through
`__init__.py`. Tests and the benchmark harness do not count either: the
package is the CLI plus what it runs.
"""
import ast
import os

import magpsido

SRC = os.path.dirname(os.path.abspath(magpsido.__file__))

# definitions kept on purpose although no package code uses them
ALLOWED = {
    "backend",           # benchmark entry point: records the array backend
    "scenario_context",  # benchmark entry point: builds a config's grid, symbol, gauge
    "magnetic_phase",    # per-pair oracle for the phases grid_phase gives both assemblies
}


def _used_names(node):
    """Identifiers that code under `node` reads by name or attribute."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
    return used


def _scan():
    """(module, name) of each top-level definition, and for each top-level
    statement of each module the names it uses."""
    definitions, uses = [], []
    for fname in sorted(os.listdir(SRC)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(SRC, fname)) as fh:
            tree = ast.parse(fh.read(), filename=fname)
        for stmt in tree.body:
            key = (fname, id(stmt))
            uses.append((key, _used_names(stmt)))
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append((key, fname, stmt.name))
    return definitions, uses


def _unreferenced():
    definitions, uses = _scan()
    return sorted(f"{fname[:-3]}.{name}" for key, fname, name in definitions
                  if name not in ALLOWED
                  and not any(name in names for other, names in uses if other != key))


def test_every_definition_is_used_by_the_package():
    assert _unreferenced() == []


def test_allowlist_names_live_definitions():
    definitions, _ = _scan()
    assert ALLOWED <= {name for _, _, name in definitions}
