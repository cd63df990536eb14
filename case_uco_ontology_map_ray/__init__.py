"""Ray-Data-native CASE/UCO knowledge-graph construction engine.

A from-scratch rebuild of the query/data-processing capabilities of the
reference repo ``kismatkunwar89/CASE-UCO-ontology-map`` (see SURVEY.md),
expressed as Ray Data pipelines: ``ray.data.Dataset`` -> ``map_batches``
over zero-copy Arrow batches, stateless tasks with a per-worker-process
stage cache for the compiled mapper and validator, explicit groupby/shuffle
steps for dedup, entity linking and canonicalization.

Layout
------
- ``config``     : namespaces, JSON-LD context, alias maps, frozen ontology maps
- ``functions/`` : pure scalar/vectorized kernels (naming, fingerprint, JSON
                   parsing, content hashes, shingles, MinHash, SimHash)
- ``kg/``        : deterministic KG core — record extraction, UUID planning,
                   property mapping, graph composition, triple flattening
- ``ontology/``  : TTL-derived ontology index (SHACL-lite shapes) + validation
- ``sources/``   : transcript reader + deterministic synthetic generator
- ``stages/``    : Ray Data stage functions (record iterator, triple and
                   validating triple stages)
- ``ops/``       : shared dataset operators (bucketed joins, grouped sums,
                   dedup and connected components, similarity, sketches,
                   sampling, text quality and PII redaction); they never
                   import ``pipelines/``
- ``pipelines/`` : end-to-end pipelines (transcripts -> triples, JSON-LD,
                   entity linking and graph analytics, transcript prep) and
                   the table/corpus operator libraries (``analytics``,
                   ``corpus``) that no query entry calls any more
- ``state/``     : per-partition lineage manifests + resume logic
"""

__version__ = "0.1.0"
