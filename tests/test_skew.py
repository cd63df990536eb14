"""Skew stress: one conversation orders of magnitude hotter than the rest
must not break correctness or blow up any single task."""

import pytest

pytestmark = pytest.mark.usefixtures("ray_session")


def _skewed_table():
    import pyarrow as pa

    from case_uco_ontology_map_ray.sources.transcripts import (
        conversations_table,
        generate_conversation,
    )

    # conv 0 via hot_factor is already ~200x mean; crank further with a
    # direct long conversation + 30 normal ones
    hot = generate_conversation(0, mean_turns=12)  # 2400 turns
    rest = conversations_table(range(1, 31), 12)
    hot_t = pa.table({
        "conv_id": pa.array(hot["conv_id"], pa.string()),
        "turn_idx": pa.array(hot["turn_idx"], pa.int32()),
        "role": pa.array(hot["role"], pa.string()),
        "text": pa.array(hot["text"], pa.string()),
        "tool": pa.array(hot["tool"], pa.string()),
        "ts": pa.array(hot["ts"], pa.timestamp("us")),
    })
    return pa.concat_tables([hot_t, rest])


def test_skewed_conversation_pipeline_and_salted_stats():
    import ray.data as rd

    from case_uco_ontology_map_ray.pipelines.kg import (
        distinct_triples,
        triples_from_transcripts,
    )
    from case_uco_ontology_map_ray.pipelines.linking import (
        conversation_entity_stats,
        mentions_from_triples,
    )

    tab = _skewed_table()
    n_hot = sum(1 for c in tab["conv_id"].to_pylist() if c == "conv-00000000")
    assert n_hot == 2400  # the hot key dominates the table

    triples = triples_from_transcripts(rd.from_arrow(tab))
    distinct = distinct_triples(triples).to_pandas()
    # hot conversation has heavy duplication (small payload space); dedup
    # must collapse it without error and keep one rdf:type per subject
    types = distinct[distinct.pred == "rdf:type"].groupby("subj").size()
    assert (types == 1).all()

    # salted per-conversation distinct counts equal the unsalted truth
    stats = conversation_entity_stats(
        triples_from_transcripts(rd.from_arrow(tab)), salt_k=8
    )
    m = mentions_from_triples(
        triples_from_transcripts(rd.from_arrow(tab))
    ).to_pandas()
    truth = m.groupby("conv_id").pid.nunique().to_dict()
    got = dict(zip(stats.conv_id, stats.n_entities))
    assert got == truth
    # the hot conversation's count is present and plausible
    assert got["conv-00000000"] > 100
