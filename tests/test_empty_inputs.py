"""Empty-input robustness: the KG path, the shared operators under it and
the table/corpus pipelines must return (possibly empty) results — never
raise — on zero-row input.

Ray drops a lineage's schema with its last block, so on fully-empty input
every lazy transform reports ``schema() -> None`` and ``to_pandas()``
yields a ZERO-COLUMN frame. Each shared guard for that case is pinned
below by a direct call on such a lineage, and each root cause fixed in the
table/corpus pipelines by one representative pipeline run on a corpus of
zero-row tables.
"""

import os

import pytest

from case_uco_ontology_map_ray.pipelines import analytics, corpus

SF = "/root/testdata/sf0.001"
TABLES = ("region nation customer supplier part orders lineitem events "
          "documents embeddings").split()

# one pipeline per fixed root cause / shared guard:
REPRESENTATIVES = {
    "order_priority_counts": analytics.order_priority_counts,  # bucket_semi_join schema-None guard
    "q3_top_revenue_orders": analytics.q3_top_revenue_orders,  # adaptive_semi_join empty-right guard
    "purchase_last_click": analytics.purchase_last_click,      # asof_join schema-None guard
    "supplier_part_join": analytics.supplier_part_join,        # bucket_join schema-None guard
    "dedup_minhash_documents": corpus.dedup_minhash_documents,  # dedup _propagate_components edge guard
    "dedup_exact_documents": corpus.dedup_exact_documents,     # corpus _finish collect guard
    "doc_length_ranks": corpus.doc_length_ranks,               # agg global_row_number empty offsets
    "doc_language_rebalance": corpus.doc_language_rebalance,   # grouped_sums empty -> early return
    "similarity_topk": corpus.similarity_topk,                 # _query_vector None on empty embeddings
    "kmeans_invariants": corpus.kmeans_invariants,             # kmeans_fit zero-history sentinel
    "embedding_neardup_lsh": corpus.embedding_neardup_lsh,     # take(1) on empty dataset guard
    "event_value_quantiles": analytics.event_value_quantiles,  # ensure_columns at map_groups collect
    "profile_orders": analytics.profile_orders,                # reindex instead of .loc on empty base
    "user_funnel": analytics.user_funnel,                      # per-stage partial-sum column guard
    "approx_users_by_type_invariants":
        analytics.approx_users_by_type_invariants,             # sketches group-collect guard
    "rrf_hybrid_search": corpus.rrf_hybrid_search,             # fusion of two empty rankings
}


@pytest.fixture(scope="module")
def empty_sf(tmp_path_factory):
    """Zero-row copies of the testdata tables, with their exact schemas."""
    import pyarrow.parquet as pq

    out = str(tmp_path_factory.mktemp("empty_sf"))
    for t in TABLES:
        sch = pq.read_schema(os.path.join(SF, f"{t}.parquet"))
        pq.write_table(sch.empty_table(), os.path.join(out, f"{t}.parquet"))
    return out


def _empty_lineage(tmp_path, name, schema):
    """A lazy Dataset over a zero-row parquet file whose ``schema()`` is
    None (the map after the read has no block to carry it)."""
    import pyarrow.parquet as pq
    import ray.data as rd

    path = str(tmp_path / f"{name}.parquet")
    pq.write_table(schema.empty_table(), path)
    ds = rd.read_parquet(path).map_batches(lambda t: t, batch_format="pyarrow")
    assert ds.schema() is None
    return ds


def _guard_bucket_semi_join(tmp_path):
    import pyarrow as pa
    import ray.data as rd

    from case_uco_ontology_map_ray.ops.joins import bucket_semi_join

    empty = _empty_lineage(tmp_path, "l", pa.schema([("k", pa.int64())]))
    right = rd.from_items([{"k": 1}])
    assert bucket_semi_join(empty, right, on="k").count() == 0
    assert bucket_semi_join(empty, right, on="k", negate=True).count() == 0


def _guard_bucket_join(tmp_path):
    import pyarrow as pa
    import ray.data as rd

    from case_uco_ontology_map_ray.ops.joins import bucket_join

    sch = pa.schema([("k", pa.int64()), ("w", pa.int64())])
    left = rd.from_items([{"k": 1, "v": 10}, {"k": 2, "v": 20}])
    assert bucket_join(left, _empty_lineage(tmp_path, "r", sch),
                       on="k").count() == 0
    kept = bucket_join(left, _empty_lineage(tmp_path, "r2", sch), on="k",
                       how="left").to_pandas()
    assert sorted(kept["k"]) == [1, 2]
    assert bucket_join(_empty_lineage(tmp_path, "l", sch), left,
                       on="k").count() == 0


def _guard_propagate_components(tmp_path):
    import pyarrow as pa
    import ray.data as rd

    from case_uco_ontology_map_ray.ops.dedup import _propagate_components

    edges = _empty_lineage(tmp_path, "e", pa.schema([("u", pa.int64()),
                                                     ("v", pa.int64())]))
    ids = rd.from_items([{"doc_id": 3}, {"doc_id": 1}])
    out = _propagate_components(edges, ids, "cluster_id").to_pandas()
    # no edges: every doc is its own component
    assert sorted(zip(out["doc_id"], out["cluster_id"])) == [(1, 1), (3, 3)]


def _guard_minhash_lsh_dedup(tmp_path):
    import pyarrow as pa

    from case_uco_ontology_map_ray.ops.dedup import minhash_lsh_dedup

    docs = _empty_lineage(tmp_path, "d", pa.schema([("doc_id", pa.int64()),
                                                    ("text", pa.string())]))
    assert minhash_lsh_dedup(docs).count() == 0


def _guard_grouped_sums(tmp_path):
    import pyarrow as pa

    from case_uco_ontology_map_ray.ops.agg import grouped_sums

    ds = _empty_lineage(tmp_path, "g", pa.schema([("key", pa.string()),
                                                  ("x", pa.int64())]))
    out = grouped_sums(ds, ["key"], {"sx": "x"}, count_alias="n")
    assert out.empty and list(out.columns) == ["key", "sx", "n"]


GUARDS = {
    "bucket_semi_join": _guard_bucket_semi_join,      # schema-None left
    "bucket_join": _guard_bucket_join,                # schema-None either side
    "propagate_components": _guard_propagate_components,  # no-edge guard
    "minhash_lsh_dedup": _guard_minhash_lsh_dedup,    # empty sketch collect
    "grouped_sums": _guard_grouped_sums,              # rebuilt empty frame
}


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("name", sorted(GUARDS))
def test_shared_op_survives_empty_input(tmp_path, name):
    GUARDS[name](tmp_path)


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("name", list(REPRESENTATIVES))
def test_query_survives_empty_corpus(empty_sf, name):
    r = REPRESENTATIVES[name](empty_sf)
    if hasattr(r, "to_pandas"):
        r = r.to_pandas()
    # empty input -> empty (or all-zero summary) result, never an exception
    assert len(r) >= 0


@pytest.mark.usefixtures("ray_session")
def test_kg_family_survives_empty_transcripts(tmp_path):
    """The flagship path on a zero-row transcripts table: construction,
    dedup, validation, canonicalization, and the graph analytics all
    return empty results instead of raising."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from case_uco_ontology_map_ray.pipelines import kg, linking

    src = str(tmp_path / "transcripts")
    import os

    os.makedirs(src)
    sch = pa.schema([("conv_id", pa.string()), ("turn_idx", pa.int32()),
                     ("role", pa.string()), ("text", pa.string()),
                     ("tool", pa.string()), ("ts", pa.timestamp("us"))])
    pq.write_table(sch.empty_table(), f"{src}/part-0.parquet")

    assert kg.triples_from_transcripts(src).count() == 0
    assert kg.distinct_triples_by_record(src).count() == 0
    assert kg.validated_triples(src).count() == 0
    assert len(kg.literal_value_counts(kg.triples_from_transcripts(src))) == 0
    ent, link = linking.canonical_entities(kg.triples_from_transcripts(src))
    assert ent.count() == 0 and link.count() == 0
    assert ent.schema().base_schema == linking.ENTITY_SCHEMA
    assert link.schema().base_schema == linking.LINK_SCHEMA
    assert len(linking.entity_pagerank(
        kg.triples_from_transcripts(src), iters=2, k=5)) == 0
    assert len(linking.conversation_entity_stats(
        kg.triples_from_transcripts(src))) == 0
