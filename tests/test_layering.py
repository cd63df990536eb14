"""Structural contracts of the package and the query surface.

- Imports go from ``pipelines/`` to ``ops/``, never the other way.
- The connected-components kernels of ``ops/graph`` run under exactly
  three callers: the co-mention component rollup, the dedup components and
  the all-driver dedup tail. The graph queries have no size-gate parameter
  of their own (the graph core's ``SMALL_GRAPH_INCIDENCE`` is the one
  gate).
- The query surface is the KG family only: every oracle has a query, and
  every query is a ``kg_``, ``transcript_`` or ``pii_`` query.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PKG = "case_uco_ontology_map_ray"


def _imported_modules(tree: ast.AST) -> list[str]:
    """Absolute dotted names of everything a module under ``ops/`` imports
    (relative imports resolved against ``PKG.ops``)."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.extend(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = [PKG, "ops"][: 2 - (node.level - 1)]
                mod = ".".join(base + ([node.module] if node.module else []))
            else:
                mod = node.module or ""
            out.append(mod)
            out.extend(f"{mod}.{a.name}" for a in node.names)
    return out


def test_ops_never_import_pipelines():
    offenders = []
    for path in sorted((ROOT / PKG / "ops").glob("*.py")):
        for mod in _imported_modules(ast.parse(path.read_text())):
            if mod == f"{PKG}.pipelines" or mod.startswith(f"{PKG}.pipelines."):
                offenders.append(f"{path.name}: {mod}")
    assert not offenders, offenders


def test_query_surface_is_the_kg_family():
    sys.path.insert(0, str(ROOT))
    import __ray_entry__ as e

    names = set(e.queries())
    assert set(e.oracle_sql()) <= names
    assert all(n.startswith(("kg_", "transcript_", "pii_")) for n in names), \
        sorted(n for n in names
               if not n.startswith(("kg_", "transcript_", "pii_")))


def test_only_the_component_rollups_run_label_propagation():
    kernels = {"propagate_labels", "_labels_vectorized"}
    callers = set()
    for path in sorted((ROOT / PKG).rglob("*.py")):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            owner = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    f = node.func
                    name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                    if name in kernels:
                        callers.add(f"{path.relative_to(ROOT / PKG)}:{owner}")
    assert callers == {"pipelines/linking.py:_component_table",
                       "ops/dedup.py:_propagate_components",
                       "ops/dedup.py:_minhash_driver_small"}, sorted(callers)


def test_no_pipeline_function_takes_small_incidence_rows():
    offenders = []
    for path in sorted((ROOT / PKG / "pipelines").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                if "small_incidence_rows" in [x.arg for x in
                                              a.posonlyargs + a.args + a.kwonlyargs]:
                    offenders.append(f"{path.name}:{node.name}")
    assert not offenders, offenders
