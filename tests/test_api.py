"""The public surface of ``hullmaps``: what it exports, that no module
imports what it does not use, that no function assigns a name it does not
read, and that every function, method and property it defines has a reader."""

import ast
import inspect
import re
from pathlib import Path

import hullmaps

PUBLIC_NAMES = [
    "AmbiguousTieError", "DegenerateConfigurationError", "DimensionMismatchError",
    "DimensionUnsupportedError", "DualCheckResult", "DuplicatePointsError", "EmptyProbeError",
    "EmptySetError", "Face", "Facet", "HullDescription", "HullMapsError",
    "IndexOutOfRangeError", "NotOnBoundaryError", "PointConfiguration",
    "RequiresDegenerateError", "SamplePlan", "SamplingExhaustedError",
    "StrategyDimensionMismatchError", "TooManyPointsError", "arctan_family",
    "build_configuration", "build_hull", "classify_direction", "classify_directions_bulk",
    "concave_turn_indices", "degenerate_limit_probe", "directed_hausdorff",
    "distances_to_boundary", "distances_to_face", "dual_combinatorics_check",
    "evaluate_batch_array", "face_limit_probe", "flattened_spherical_dual",
    "graph_limit_demo", "is_nondegenerate", "kernel_backend", "nonconvexity_probe",
    "outer_normal_transform", "read_points_csv", "sample", "sample_boundary",
    "sample_face_points", "sample_near", "spherical_dual", "theorem_sweep", "unit_vector",
    "weights_batch_array", "write_points_csv",
]

# the paper's definitions now live in tests/definitions.py as oracles; the
# Hausdorff and run-count helpers are gone; the two records are return types only
NOT_EXPORTED = [
    "c_factor", "limit_factor", "in_normal_spherical_polytope", "minimal_face_containing",
    "gauss_map", "w_set_contains", "symmetric_hausdorff", "count_concave_runs",
    "SphericalDualComplex", "ConvergenceReport",
]

PACKAGE = Path(hullmaps.__file__).resolve().parent
REPO = PACKAGE.parents[1]


def test_public_names_are_pinned():
    names = sorted(n for n in dir(hullmaps)
                   if not n.startswith("_") and not inspect.ismodule(getattr(hullmaps, n)))
    assert names == PUBLIC_NAMES


def test_moved_and_dropped_names_are_not_exported():
    assert [n for n in NOT_EXPORTED if hasattr(hullmaps, n)] == []


def _sibling_imports(tree: ast.Module, lines: list):
    """(name, line) per name a module binds by ``from . import`` or
    ``from .sibling import``, except on lines marked ``# noqa: F401``."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom) and node.level == 1):
            continue
        if any("noqa: F401" in lines[k] for k in range(node.lineno - 1, node.end_lineno)):
            continue
        for alias in node.names:
            yield alias.asname or alias.name, node.lineno


def test_every_sibling_import_is_used():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text()
        tree = ast.parse(source)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}"
                   for name, line in _sibling_imports(tree, source.splitlines())
                   if name not in used]
    assert unused == []


def _unread_names(tree: ast.Module):
    """(function, name, line) per name a function assigns and never reads,
    names starting with ``_`` aside; a nested function's reads count for the
    function around it."""
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored, read = {}, set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Store):
                    stored.setdefault(node.id, node.lineno)
                else:
                    read.add(node.id)
        yield from ((fn.name, name, line) for name, line in stored.items()
                    if not name.startswith("_") and name not in read)


def test_every_assigned_name_is_read():
    unread = [f"{path.name}:{line} {fn}: {name}"
              for path in sorted(PACKAGE.glob("*.py"))
              for fn, name, line in _unread_names(ast.parse(path.read_text()))]
    assert unread == []


def _definitions(tree: ast.Module):
    """(name, first line, last line) per function, method and property a
    module defines, dunder methods aside; a property is a ``def`` or a class
    attribute assigned from ``property(...)``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.lineno, node.end_lineno
        elif isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if (isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Call)
                        and getattr(stmt.value.func, "id", None) == "property"):
                    for target in stmt.targets:
                        yield target.id, stmt.lineno, stmt.end_lineno


def _references():
    """{name: [(source, line), ...]} of every name read or attribute taken in
    src/, tests/, perfbench/ and README.md's ``python`` blocks."""
    sources = [(str(path), path.read_text()) for base in ("src", "tests", "perfbench")
               for path in sorted((REPO / base).rglob("*.py"))]
    readme = (REPO / "README.md").read_text()
    sources += [(f"README.md block {k}", block) for k, block in
                enumerate(re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S))]
    refs = {}
    for where, source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                refs.setdefault(node.id, []).append((where, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.setdefault(node.attr, []).append((where, node.lineno))
    return refs


def test_every_definition_has_a_reader():
    """A function, method or property of the package is referenced by name
    somewhere outside its own definition."""
    refs = _references()
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, first, last in _definitions(ast.parse(path.read_text())):
            if name.startswith("__") and name.endswith("__"):
                continue
            if all(where == str(path) and first <= line <= last
                   for where, line in refs.get(name, [])):
                unread.append(f"{path.name}:{first} {name}")
    assert unread == []
