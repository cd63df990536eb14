"""Empty-input robustness: queries must return (possibly empty) results —
never raise — on a corpus of zero-row tables.

Ray drops a lineage's schema with its last block, so on fully-empty input
every lazy transform reports ``schema() -> None`` and ``to_pandas()``
yields a ZERO-COLUMN frame (the ADVICE-r4 failure family). The full
145-query sweep lives in scripts/audit_empty_inputs.py (exit-0 recorded in
ROUND5_NOTES); this test pins one representative per fixed root cause so a
regression in any shared guard fails fast in CI.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from scripts.audit_empty_inputs import build_empty_sf  # noqa: E402

# one query per fixed root cause / shared guard:
REPRESENTATIVES = [
    "order_priority_counts",       # bucket_semi_join schema-None guard
    "q3_top_revenue_orders",       # adaptive_semi_join empty-right guard
    "purchase_last_click",         # asof_join schema-None guard
    "supplier_part_join",          # bucket_join schema-None guard
    "dedup_minhash_documents",     # dedup _propagate_components edge guard
    "dedup_exact_documents",       # corpus _finish collect guard
    "doc_length_ranks",            # agg global_row_number empty offsets
    "doc_language_rebalance",      # grouped_sums empty -> early return
    "similarity_topk",             # _query_vector None on empty embeddings
    "kmeans_invariants",           # kmeans_fit zero-history sentinel
    "embedding_neardup_lsh",       # take(1) on empty dataset guard
    "event_value_quantiles",       # ensure_columns at map_groups collect
    "profile_orders",              # reindex instead of .loc on empty base
    "user_funnel",                 # per-stage partial-sum column guard
    "approx_users_by_type_invariants",  # sketches group-collect guard
    "rrf_hybrid_search",           # fusion of two empty rankings
]


@pytest.fixture(scope="module")
def empty_sf(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("empty_sf"))
    build_empty_sf(out)
    return out


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("name", REPRESENTATIVES)
def test_query_survives_empty_corpus(empty_sf, name):
    import __ray_entry__ as e

    r = e.queries()[name](empty_sf)
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
    assert len(ent) == 0 and link.count() == 0
    assert len(linking.entity_pagerank(
        kg.triples_from_transcripts(src), iters=2, k=5)) == 0
    assert len(linking.conversation_entity_stats(
        kg.triples_from_transcripts(src))) == 0
