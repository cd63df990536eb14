"""Structural contracts of the package and the query surface.

- Imports go from ``pipelines/`` to ``ops/``, never the other way.
- The connected-components kernels of ``ops/graph`` run under exactly
  three callers: the co-mention component rollup, the dedup components and
  the all-driver dedup tail. The graph queries have no size-gate parameter
  of their own (the graph core's ``SMALL_GRAPH_INCIDENCE`` is the one
  gate).
- The query surface is the KG family only: every oracle has a query, and
  every query is a ``kg_``, ``transcript_`` or ``pii_`` query.
- No dead code: every top-level definition of the package is reached from
  ``__ray_entry__`` (``queries()``, ``oracle_sql()``, ``entry()``), a
  script or the benchmark, by name; tests are not roots. The few
  reference-contract functions that only tests call are listed, each with
  the reference function it reproduces, and so are the operator libraries
  that are kept whole until they are deleted.
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


# Functions of the reference repository's contract that no query, script or
# benchmark calls, only the parity tests; each keeps what it reaches alive.
REFERENCE_ONLY = {
    "normalize_input": "reference _normalize_input: dict/list/CSV/text intake",
    "wrap_csv_payload": "reference CSV + metadata payload wrapper",
    "read_transcripts_any": "reference JSON/CSV upload intake, as a Dataset",
    "extract_fenced_json": "reference fenced-JSON extraction of LLM output",
    "clean_json_payload": "reference comment-stripping JSON cleaner",
    "extract_uuids": "reference UUID harvest from validator feedback",
    "parse_markdown_mapping_tables": "reference _parse_markdown_mapping_tables",
    "referenced_fields": "reference unmapped-field differ",
    "jsonld_for_payload": "reference per-payload composer (golden parity)",
    "memory_context": "reference update_memory_context rendering",
    "post_error": "reference SSE error event",
}

# Operator libraries that no query, script or benchmark calls, kept whole
# with their tests: every definition in them is a root, so the shared
# operators they use stay and nothing else may be reached only from them.
LIBRARY_MODULES = {
    "pipelines/analytics.py": "TPC-H-style table operators",
    "pipelines/corpus.py": "training-corpus operators",
    "ops/sketches.py": "HLL/KMV/CountMin/quantile sketches of analytics",
    "ops/sample.py": "deterministic samplers and splits of corpus",
    "ops/similarity.py": "embedding top-k, k-means and near-dup of corpus",
}


def _refs(node: ast.AST) -> set[str]:
    """Names a node refers to: identifiers, attribute names and identifier-
    shaped string constants (``getattr`` and ``fn_kwargs`` use those);
    import statements do not count."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif (isinstance(n, ast.Constant) and isinstance(n.value, str)
              and n.value.isidentifier()):
            out.add(n.value)
    return out


def _top_defs(tree: ast.Module):
    """(name, node) of every top-level function, class and assignment."""
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield top.name, top
        elif isinstance(top, (ast.Assign, ast.AnnAssign)):
            targets = top.targets if isinstance(top, ast.Assign) else [top.target]
            for t in targets:
                for n in ast.walk(t):
                    if isinstance(n, ast.Name):
                        yield n.id, top


def _reached(defs: dict, seeds: set[str]) -> set[str]:
    reached, todo = set(), list(seeds)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            for _, node in defs.get(name, []):
                todo.extend(_refs(node) - reached)
    return reached


def test_every_package_definition_is_reached():
    defs: dict = {}
    seeds = {"queries", "oracle_sql", "entry"}
    modules = sorted((ROOT / PKG).rglob("*.py")) + [ROOT / "__ray_entry__.py"]
    for path in modules:
        tree = ast.parse(path.read_text())
        library = (path.relative_to(ROOT).as_posix().removeprefix(f"{PKG}/")
                   in LIBRARY_MODULES)
        owned = set()
        for name, node in _top_defs(tree):
            defs.setdefault(name, []).append((path.relative_to(ROOT), node))
            owned.add(id(node))
            if library:
                seeds.add(name)
        # module-level code that is not a definition runs on import
        seeds |= set().union(*(_refs(t) for t in tree.body if id(t) not in owned))
    roots = sorted((ROOT / "scripts").glob("*.py")) + [
        p for p in sorted((ROOT / "perfbench").glob("*.py"))
        if not p.name.startswith("test_")]
    for path in roots:
        seeds |= _refs(ast.parse(path.read_text()))

    missing = sorted(m for m in LIBRARY_MODULES if not (ROOT / PKG / m).exists())
    assert not missing, f"deleted, drop from LIBRARY_MODULES: {missing}"
    reached = _reached(defs, seeds)
    stale = sorted(n for n in REFERENCE_ONLY if n in reached or n not in defs)
    assert not stale, f"reached from a root or gone, drop from REFERENCE_ONLY: {stale}"
    reached = _reached(defs, seeds | set(REFERENCE_ONLY))
    dead = sorted(f"{path}:{name}" for name, nodes in defs.items()
                  if name not in reached and not name.startswith("__")
                  for path, _ in nodes)
    assert not dead, dead

