"""Transcript boilerplate detection / removal (pipelines/transcript_prep)."""

import pandas as pd
import pytest

pytestmark = pytest.mark.usefixtures("ray_session")


def _turns_ds(n_convs=8, mean_turns=10):
    import ray.data as rd

    from case_uco_ontology_map_ray.sources.transcripts import conversations_table

    return rd.from_arrow(conversations_table(range(n_convs), mean_turns))


def test_boilerplate_counts_are_consistent():
    from case_uco_ontology_map_ray.pipelines import transcript_prep as tp

    ds = _turns_ds()
    total = ds.count()
    summary = tp.boilerplate_removal_counts(ds, min_convs=4)
    row = summary.iloc[0]
    assert row.n_turns_total == total
    assert row.n_turns_kept + row.n_turns_removed == total
    # the generator's prompt templates recur in every conversation
    assert row.n_boilerplate_texts > 0 and row.n_turns_removed > 0


def test_removal_stream_matches_summary_and_drops_only_flagged():
    from case_uco_ontology_map_ray.pipelines import transcript_prep as tp

    ds = _turns_ds()
    summary = tp.boilerplate_removal_counts(ds, min_convs=4).iloc[0]
    flagged = set(tp.boilerplate_turns(ds, min_convs=4).text)
    kept = tp.remove_boilerplate_turns(ds, min_convs=4).to_pandas()
    assert len(kept) == summary.n_turns_kept
    assert not (kept.text.isin(flagged)).any()
    # Dataset inputs keep their own columns (path inputs are read pruned)
    assert {"conv_id", "turn_idx", "role", "text"} <= set(kept.columns)
    assert "pid" not in kept.columns


def test_flag_listing_counts_distinct_conversations_not_turns():
    import pyarrow as pa
    import ray.data as rd

    from case_uco_ontology_map_ray.pipelines import transcript_prep as tp

    # "dup" appears twice in ONE conversation (1 conv), "tmpl" once in each
    # of 3 conversations — only tmpl crosses a min_convs=3 bar
    rows = [("c1", 0, "user", "dup"), ("c1", 1, "user", "dup"),
            ("c1", 2, "user", "tmpl"), ("c2", 0, "user", "tmpl"),
            ("c3", 0, "user", "tmpl"), ("c3", 1, "user", "solo")]
    tab = pa.table({
        "conv_id": [r[0] for r in rows],
        "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
        "role": [r[2] for r in rows],
        "text": [r[3] for r in rows],
    })
    out = tp.boilerplate_turns(rd.from_arrow(tab), min_convs=3)
    assert list(out.text) == ["tmpl"]
    assert list(out.n_convs) == [3] and list(out.n_turns) == [3]
    kept = tp.remove_boilerplate_turns(rd.from_arrow(tab), min_convs=3).to_pandas()
    assert sorted(kept.text) == ["dup", "dup", "solo"]


def test_empty_input_is_schema_stable():
    import pyarrow as pa
    import ray.data as rd

    from case_uco_ontology_map_ray.pipelines import transcript_prep as tp

    tab = pa.table({"conv_id": pa.array([], pa.string()),
                    "turn_idx": pa.array([], pa.int32()),
                    "role": pa.array([], pa.string()),
                    "text": pa.array([], pa.string())})
    out = tp.boilerplate_turns(rd.from_arrow(tab), min_convs=2)
    assert len(out) == 0
    assert list(out.columns) == ["text", "role", "n_convs", "n_turns"]
    summary = tp.boilerplate_removal_counts(rd.from_arrow(tab), min_convs=2)
    assert summary.iloc[0].n_turns_total == 0


def _hand_turns():
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    def ts(minute):
        return np.datetime64(f"2024-01-01T00:{minute:02d}:00", "us")

    # c1: 3 turns, gaps +60s and +180s; c2: single turn; c3: ts goes
    # BACKWARD (negative gap must survive, not be masked to 0)
    return rd.from_arrow(pa.table({
        "conv_id": pa.array(["c1", "c1", "c1", "c2", "c3", "c3"]),
        "turn_idx": pa.array([0, 1, 2, 0, 0, 1], pa.int32()),
        "role": pa.array(["user", "tool", "assistant", "user",
                          "user", "tool"]),
        "text": pa.array(["q", "payload-123", "a", "solo", "q", "pp"]),
        "tool": pa.array([None, "grep", None, None, None, "awk"]),
        "ts": pa.array([ts(0), ts(1), ts(4), ts(0), ts(5), ts(3)]),
    }))


def test_turn_latency_hand_case():
    from case_uco_ontology_map_ray.pipelines import transcript_prep as tp

    out = tp.turn_latency_stats(_hand_turns()).set_index("conv_id")
    assert out.loc["c1", "n_turns"] == 3
    assert out.loc["c1", "span_us"] == 240 * 1_000_000
    assert out.loc["c1", "max_gap_us"] == 180 * 1_000_000
    assert out.loc["c2", "n_turns"] == 1 and out.loc["c2", "max_gap_us"] == 0
    # c3's only gap is negative: it must NOT clamp to 0
    assert out.loc["c3", "max_gap_us"] == -120 * 1_000_000
    assert out.loc["c3", "span_us"] == 120 * 1_000_000


def test_tool_usage_distinct_convs():
    from case_uco_ontology_map_ray.pipelines import transcript_prep as tp

    out = tp.tool_usage_stats(_hand_turns()).set_index("tool")
    assert out.loc["grep", "n_calls"] == 1
    assert out.loc["grep", "n_convs"] == 1
    assert out.loc["grep", "total_chars"] == len("payload-123")
    assert out.loc["awk", "n_calls"] == 1
    assert set(out.index) == {"grep", "awk"}  # non-tool roles excluded


def test_redact_pii_families_and_order(ray_session):
    """Each family redacts its tokens; sequential semantics: digit runs
    inside an email are gone before the num family, pure-digit runs never
    double-count as hex, and clean text passes through byte-identical."""
    import pyarrow as pa
    import ray.data as rd

    from case_uco_ontology_map_ray.ops.text import redact_pii

    rows = {
        "doc_id": [1, 2, 3, 4],
        "text": [
            "reach me: a.user+tag@sub.example.org from 192.168.0.254",
            "ssn 123-45-6789, acct 0012345678, sha D8414F97ab12",
            "digits 123456789 are num NOT hex; beef1234 is hex",
            "short 12345 and CAFE are untouched",
        ],
    }
    out = (redact_pii(rd.from_arrow(pa.table(rows)))
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert out["red_text"].tolist() == [
        "reach me: <EMAIL> from <IP>",
        "ssn <SSN>, acct <NUM>, sha <HEX>",
        "digits <NUM> are num NOT hex; <HEX> is hex",
        "short 12345 and CAFE are untouched",
    ]
    assert out[["n_email", "n_ipv4", "n_ssn", "n_num", "n_hex"]].values.tolist() == [
        [1, 1, 0, 0, 0],
        [0, 0, 1, 1, 1],
        [0, 0, 0, 1, 1],
        [0, 0, 0, 0, 0],
    ]
