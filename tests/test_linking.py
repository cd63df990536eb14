"""Entity linking / canonicalization tests."""

import numpy as np
import pandas as pd
import pytest

pytestmark = pytest.mark.usefixtures("ray_session")


def _on_datasets(monkeypatch):
    """Force the co-mention graph core onto its Dataset side."""
    from case_uco_ontology_map_ray.pipelines import linking

    monkeypatch.setattr(linking, "SMALL_GRAPH_INCIDENCE", 0)


def _triples_ds(n_convs=6):
    from case_uco_ontology_map_ray.pipelines.kg import triples_from_transcripts
    from case_uco_ontology_map_ray.sources.transcripts import conversations_table

    import ray.data as rd

    tab = conversations_table(range(n_convs), 12)
    return triples_from_transcripts(rd.from_arrow(tab))


def test_normalize_path_unifies_mft_and_prefetch_forms():
    from case_uco_ontology_map_ray.pipelines.linking import normalize_path

    a = normalize_path("C\\Windows\\Prefetch\\MALICIOUS.EXE-12345678.pf")
    b = normalize_path("\\Windows\\Prefetch\\MALICIOUS.EXE-12345678.pf")
    assert a == b == "windows/prefetch/malicious.exe-12345678.pf"
    assert normalize_path("c:/Windows/x") == "windows/x"


def test_mentions_extraction():
    from case_uco_ontology_map_ray.pipelines.linking import mentions_from_triples

    m = mentions_from_triples(_triples_ds()).to_pandas()
    assert len(m) > 0
    assert set(m.columns) == {"conv_id", "turn_idx", "subj", "path", "norm_path", "pid"}
    # same normalized path -> same pid
    g = m.groupby("norm_path").pid.nunique()
    assert (g == 1).all()


def test_canonical_entities_converge_and_link():
    from case_uco_ontology_map_ray.pipelines.linking import canonical_entities

    triples = _triples_ds()
    entity, link = canonical_entities(triples, max_rounds=5)
    ent = entity.to_pandas()
    ln = link.to_pandas()
    assert len(ent) > 0 and len(ln) > 0
    # canonical id is a function of the component: every pid maps to exactly
    # one canonical_id, and label rows agree with the path table
    assert ent.groupby("pid").canonical_id.nunique().eq(1).all()
    # exact duplicates collapse: a path equal to its canonical_path has
    # canonical label == its own pid
    self_rows = ent[ent.norm_path == ent.canonical_path]
    assert (self_rows.label == self_rows.pid).all()
    # every mention got linked
    assert set(ln.pred.unique()) == {"kb:canonicalEntity"}
    assert ln.obj.str.startswith("kb:entity-").all()
    # determinism: rerun yields identical entity table
    ent2 = canonical_entities(triples, max_rounds=5)[0].to_pandas()
    key = ["pid", "label", "canonical_id"]
    assert set(map(tuple, ent[key].values.tolist())) == set(map(tuple, ent2[key].values.tolist()))


def test_near_duplicate_paths_share_component():
    import ray.data as rd

    from case_uco_ontology_map_ray.pipelines.linking import canonical_entities

    import pyarrow as pa

    # two near-identical paths + one unrelated; feed as prebuilt triples
    rows = [
        ("s1", "uco-observable:filePath", "C\\Users\\Bob\\payload-alpha-0001.bin"),
        ("s2", "uco-observable:filePath", "C\\Users\\Bob\\payload-alpha-0002.bin"),
        ("s3", "uco-observable:filePath", "D\\totally\\other\\thing.txt"),
    ]
    t = pa.table({
        "subj": [r[0] for r in rows],
        "pred": [r[1] for r in rows],
        "obj": [r[2] for r in rows],
        "obj_dt": ["xsd:string"] * 3,
        "conv_id": ["c1"] * 3,
        "turn_idx": pa.array([0, 1, 2], pa.int32()),
    })
    entity, _ = canonical_entities(rd.from_arrow(t), num_perm=32, bands=16)
    ent = entity.to_pandas()
    by_path = dict(zip(ent.norm_path, ent.canonical_id))
    a = by_path["users/bob/payload-alpha-0001.bin"]
    b = by_path["users/bob/payload-alpha-0002.bin"]
    c = by_path["d/totally/other/thing.txt"]
    assert a == b
    assert c != a


def test_small_and_distributed_paths_agree():
    """The vectorized small-mode and the distributed groupby-round mode must
    compute the identical canonical assignment."""
    from case_uco_ontology_map_ray.pipelines.linking import canonical_entities

    triples = _triples_ds(4)
    small = canonical_entities(triples, max_rounds=5)[0].to_pandas()
    dist = canonical_entities(triples, max_rounds=5, small_threshold=0)[0].to_pandas()
    key = ["pid", "label", "canonical_id"]
    assert set(map(tuple, small[key].values.tolist())) == set(
        map(tuple, dist[key].values.tolist())
    )


def _rowset(df, cols):
    return set(map(tuple, df[cols].astype(str).values.tolist()))


ENTITY_KEY = ["pid", "label", "canonical_id"]
LINK_COLS = ["subj", "pred", "obj", "obj_dt", "conv_id", "turn_idx"]


def _at_gate(monkeypatch, triples, past=None, bands=8):
    """Set ``ops.dedup``'s two canonicalization gates at the sizes of
    ``triples``, or one below them for the gate named by ``past``
    ("band" or "sketch"), and record which clustering functions each call
    then runs."""
    from case_uco_ontology_map_ray.ops import dedup
    from case_uco_ontology_map_ray.pipelines import linking

    mentions = linking.mentions_from_triples(triples).materialize()
    paths = linking._collected_paths(mentions)
    band_rows = mentions.count() * bands
    bound = dedup._char_sketch_bytes_bound(paths.column("norm_path"), 32,
                                           linking.PATH_SHINGLE_K)
    monkeypatch.setattr(dedup, "SMALL_BAND_ROWS", band_rows - (past == "band"))
    monkeypatch.setattr(dedup, "DRIVER_SKETCH_BYTES", bound - (past == "sketch"))
    calls = []
    for mod, name in ((linking, "distinct_paths"),
                      (dedup, "minhash_lsh_table"),
                      (dedup, "minhash_lsh_dedup"),
                      (dedup, "_minhash_driver_small")):
        fn = getattr(mod, name)

        def spy(*a, _fn=fn, _name=name, **k):
            calls.append(_name)
            return _fn(*a, **k)

        monkeypatch.setattr(mod, name, spy)
    return paths.num_rows, calls


@pytest.mark.parametrize("past", [None, "sketch", "band"])
def test_canonicalization_branches_agree_at_each_gate(monkeypatch, past):
    """All-driver and distributed canonicalization give the same entities
    and links: the all-driver branch runs with both gates at exactly the
    input's size, the distributed one with either gate one below it."""
    from case_uco_ontology_map_ray.pipelines.linking import canonical_entities

    triples = _triples_ds(4).materialize()
    ent0, link0 = canonical_entities(triples, max_rounds=5)
    want_ent = _rowset(ent0.to_pandas(), ENTITY_KEY)
    want_link = _rowset(link0.to_pandas(), LINK_COLS)
    assert len(want_ent) > 1 and len(want_link) > 0

    _, calls = _at_gate(monkeypatch, triples, past)
    ent, link = canonical_entities(triples, max_rounds=5)
    assert _rowset(ent.to_pandas(), ENTITY_KEY) == want_ent
    assert _rowset(link.to_pandas(), LINK_COLS) == want_link
    # minhash_lsh_dedup's own gates keep their defaults, so its tiny sketch
    # ends in the same all-driver tail
    distributed = ["distinct_paths", "minhash_lsh_dedup", "_minhash_driver_small"]
    assert calls == {
        None: ["minhash_lsh_table", "_minhash_driver_small"],
        "sketch": ["minhash_lsh_table"] + distributed,
        "band": distributed}[past]


def test_small_path_gate_boundary(monkeypatch):
    """The small-path gate bounds the (pid, label) map rows held on the
    driver: at exactly n_paths the broadcast link join fires; one under it
    the bucket_join path fires — identical entities and links either way,
    under both clustering branches."""
    from case_uco_ontology_map_ray.pipelines.linking import canonical_entities

    triples = _triples_ds(4).materialize()
    for past in (None, "band"):
        with monkeypatch.context() as m:
            n_paths, _ = _at_gate(m, triples, past)
            at_ent, at_link = canonical_entities(
                triples, max_rounds=5, small_threshold=n_paths)
            under_ent, under_link = canonical_entities(
                triples, max_rounds=5, small_threshold=n_paths - 1)
            assert _rowset(at_ent.to_pandas(), ENTITY_KEY) == _rowset(
                under_ent.to_pandas(), ENTITY_KEY), past
            assert _rowset(at_link.to_pandas(), LINK_COLS) == _rowset(
                under_link.to_pandas(), LINK_COLS), past


def test_canonicalize_below_the_gates_is_one_execution(ray_executions):
    """Below the gates, canonicalization runs one Ray execution (the mention
    materialization) and leaves the link join to the caller's write; no
    execution without operators."""
    from case_uco_ontology_map_ray.pipelines.linking import canonical_entities

    triples = _triples_ds(4).materialize()
    n0 = len(ray_executions)
    entity, link = canonical_entities(triples, max_rounds=5)
    started = ray_executions[n0:]
    assert len(started) == 1
    assert entity.count() > 0 and link.count() > 0
    assert all(ex.operators() for ex in started)


def test_conversation_entity_stats_salted():
    from case_uco_ontology_map_ray.pipelines.linking import (
        conversation_entity_stats,
        mentions_from_triples,
    )

    triples = _triples_ds()
    out = conversation_entity_stats(triples, salt_k=4)
    # cross-check against a driver-side pandas ground truth
    m = mentions_from_triples(triples).to_pandas()
    want = m.groupby("conv_id").pid.nunique()
    got = dict(zip(out.conv_id, out.n_entities))
    assert got == want.to_dict()


def test_normalize_paths_arrow_matches_scalar_rule():
    """The vectorized Arrow normalizer (hot path, r5) is pinned to the scalar
    reference rule element-for-element, including the drive/slash edge cases."""
    import pyarrow as pa

    from case_uco_ontology_map_ray.pipelines.linking import (
        normalize_path, normalize_paths_arrow)

    cases = [
        "C\\Windows\\Prefetch\\MAL.EXE-123.pf", "\\Windows\\x", "c:/Windows/x",
        "c/foo/bar", "//c:/deep//", "", "c", "x:", "::weird", "a:/b", "C:\\",
        "/usr/local/bin/tool", "D\\totally\\other\\thing.txt", "c:",
        "  spaced / path ", "ümlaut\\Päth", "c//x", "/", "\\\\srv\\share\\f",
    ]
    got = normalize_paths_arrow(pa.array(cases, pa.string())).to_pylist()
    assert got == [normalize_path(c) for c in cases]
    # dictionary-encoded input (the triple stream's obj column may be)
    got_dict = normalize_paths_arrow(
        pa.array(cases, pa.string()).dictionary_encode()).to_pylist()
    assert got_dict == got


def test_propagate_labels_chain_converges_logarithmically():
    """r5: the distributed rounds pointer-jump (label <- label(label)), so a
    long CHAIN component (the measured shape of real near-dup path corpora)
    converges in O(log diameter) rounds, not O(diameter) — and to the exact
    component min."""
    import pyarrow as pa
    import ray.data as rd

    from case_uco_ontology_map_ray.ops.graph import propagate_labels

    n = 48  # chain pid_i -- band_i -- pid_{i+1}: diameter 47
    bands = list(range(n - 1)) + list(range(n - 1))
    pids = list(range(n - 1)) + list(range(1, n))
    incidence = rd.from_arrow(pa.table({
        "band": pa.array(bands, pa.int64()),
        "pid": pa.array(pids, pa.int64()),
    }))
    labels = rd.from_arrow(pa.table({
        "pid": pa.array(range(n), pa.int64()),
        "label": pa.array(range(n), pa.int64()),
    }))
    out, rounds = propagate_labels(incidence, labels, max_rounds=5,
                                   num_buckets=8)
    df = out.to_pandas().sort_values("pid")
    assert (df["label"] == 0).all()  # exact component min for every node
    # one band-step halves distance to the min, the jump step compresses
    # paths: a 47-hop chain must close in far fewer than diameter rounds
    assert rounds <= 10, rounds


def test_components_raise_at_the_round_cap(monkeypatch):
    """Both connected-components kernels share one non-convergence policy:
    labels still moving at the round cap raise RuntimeError (a chain needs
    a second round to confirm its fixpoint)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from case_uco_ontology_map_ray.ops import graph

    monkeypatch.setattr(graph, "_round_cap", lambda max_rounds: 1)
    n = 8
    band = np.r_[np.arange(n - 1), np.arange(n - 1)].astype(np.int64)
    pid = np.r_[np.arange(n - 1), np.arange(1, n)].astype(np.int64)
    with pytest.raises(RuntimeError, match="1-round cap"):
        graph._labels_vectorized(band, pid)
    incidence = rd.from_arrow(pa.table({"band": band, "pid": pid}))
    labels = rd.from_arrow(pa.table({"pid": np.arange(n, dtype=np.int64),
                                     "label": np.arange(n, dtype=np.int64)}))
    with pytest.raises(RuntimeError, match="1-round cap"):
        graph.propagate_labels(incidence, labels)


def _path_triples_table(conv_paths: dict[str, list[str]]):
    import pyarrow as pa

    rows = {"conv_id": [], "turn_idx": [], "subj": [], "pred": [], "obj": []}
    for conv, paths in conv_paths.items():
        for i, p in enumerate(paths):
            rows["conv_id"].append(conv)
            rows["turn_idx"].append(i)
            rows["subj"].append(f"kb:rec-{conv}-{i}")
            rows["pred"].append("uco-observable:filePath")
            rows["obj"].append(p)
    return pa.table({
        "conv_id": pa.array(rows["conv_id"], pa.string()),
        "turn_idx": pa.array(rows["turn_idx"], pa.int32()),
        "subj": pa.array(rows["subj"], pa.string()),
        "pred": pa.array(rows["pred"], pa.string()),
        "obj": pa.array(rows["obj"], pa.string()),
    })


def test_comention_graph_edges_and_degrees(monkeypatch):
    import ray.data as rd

    from case_uco_ontology_map_ray.pipelines.linking import comention_graph

    # conv1: triangle a,b,c; conv2: edge a,d; edge (a,b) repeats in conv3
    tab = _path_triples_table({"c1": ["a", "b", "c"], "c2": ["a", "d"],
                               "c3": ["a", "b"]})
    _on_datasets(monkeypatch)
    g = comention_graph(rd.from_arrow(tab))
    edges, deg = g.edges, g.deg
    e = edges.to_pandas()
    assert len(e) == 2 * 4  # {a-b, a-c, b-c, a-d}, both directions, distinct
    d = deg.to_pandas().set_index("node")["deg"]
    assert sorted(d.values.tolist()) == [1, 2, 2, 3]


def test_entity_pagerank_matches_numpy_power_iteration():
    import numpy as np
    import ray.data as rd

    from case_uco_ontology_map_ray.ops.agg import round_away
    from case_uco_ontology_map_ray.pipelines.linking import entity_pagerank

    conv_paths = {"c1": ["a", "b", "c"], "c2": ["a", "d"], "c3": ["b", "e"],
                  "c4": ["a", "b"]}
    tab = _path_triples_table(conv_paths)
    out = entity_pagerank(rd.from_arrow(tab), iters=3, k=10)

    # numpy twin of the quantized power iteration over the same graph
    nodes = sorted({p for ps in conv_paths.values() for p in ps})
    ix = {p: i for i, p in enumerate(nodes)}
    E = set()
    for ps in conv_paths.values():
        for i in range(len(ps)):
            for j in range(i + 1, len(ps)):
                E.add((ix[ps[i]], ix[ps[j]]))
                E.add((ix[ps[j]], ix[ps[i]]))
    deg = np.zeros(len(nodes))
    for s, _t in E:
        deg[s] += 1
    r = np.ones(len(nodes))
    for _ in range(3):
        nxt = np.zeros(len(nodes))
        for s, t in E:
            nxt[t] += r[s] / deg[s]
        r = round_away((1.0 - 0.85) + 0.85 * nxt, 6)
    expect = {p: r[ix[p]] for p in nodes}
    got = dict(zip(out.path, out.rank_norm))
    assert got == {p: pytest.approx(expect[p], abs=1e-9) for p in got}
    assert dict(zip(out.path, out.degree)) == {
        p: int(deg[ix[p]]) for p in out.path}
    # ranking is (rank DESC, path ASC)
    key = sorted(zip(out.rank_norm, out.path),
                 key=lambda x: (-x[0], x[1]))
    assert [p for _, p in key] == list(out.path)


def test_entity_pagerank_empty_graph_is_schema_stable():
    import ray.data as rd

    from case_uco_ontology_map_ray.pipelines.linking import entity_pagerank

    # single-entity conversations -> no co-mention edges at all
    tab = _path_triples_table({"c1": ["a"], "c2": ["b"]})
    out = entity_pagerank(rd.from_arrow(tab), iters=2, k=5)
    assert len(out) == 0
    assert list(out.columns) == ["path", "degree", "rank_norm"]


def test_comention_components_hand_graph():
    import ray.data as rd

    from case_uco_ontology_map_ray.pipelines.linking import comention_components

    # comp1 = {a,b,c} via chained convs; comp2 = {d,e}; singleton f
    tab = _path_triples_table({"c1": ["a", "b"], "c2": ["b", "c"],
                               "c3": ["d", "e"], "c4": ["f"]})
    out = comention_components(rd.from_arrow(tab), k=10)
    got = list(zip(out.component_path, out.n_nodes))
    assert got == [("a", 3), ("d", 2), ("f", 1)]


def test_pagerank_small_matches_distributed(monkeypatch):
    import pandas as pd
    import ray.data as rd

    from case_uco_ontology_map_ray.pipelines.linking import entity_pagerank

    tab = _path_triples_table({"c1": ["a", "b", "c"], "c2": ["a", "d"],
                               "c3": ["b", "e"], "c4": ["a", "b"],
                               "c5": ["d", "e", "f"]})
    small = entity_pagerank(rd.from_arrow(tab), iters=3, k=10)
    _on_datasets(monkeypatch)
    dist = entity_pagerank(rd.from_arrow(tab), iters=3, k=10)
    pd.testing.assert_frame_equal(small, dist)


def test_components_small_matches_distributed(monkeypatch):
    import pandas as pd
    import ray.data as rd

    from case_uco_ontology_map_ray.pipelines.linking import comention_components

    tab = _path_triples_table({"c1": ["a", "b"], "c2": ["b", "c"],
                               "c3": ["d", "e"], "c4": ["f"],
                               "c5": ["e", "g"], "c6": ["h", "a"]})
    small = comention_components(rd.from_arrow(tab), k=10)
    _on_datasets(monkeypatch)
    dist = comention_components(rd.from_arrow(tab), k=10)
    pd.testing.assert_frame_equal(small, dist)


def test_component_queries_build_no_edges(monkeypatch):
    """Components need only the (conversation, pid) incidence: on either
    side of the graph core the component queries never run the O(k^2)
    edge builders."""
    import ray.data as rd

    from case_uco_ontology_map_ray.pipelines import linking

    def no_edges(*_):
        raise AssertionError("edge builder ran")

    monkeypatch.setattr(linking, "clique_edges_np", no_edges)
    monkeypatch.setattr(linking, "clique_edges_ds", no_edges)
    tab = _path_triples_table({"c1": ["a", "b"], "c2": ["b", "c"],
                               "c3": ["d"]})
    for force in (False, True):
        if force:
            _on_datasets(monkeypatch)
        comp = linking.comention_components(rd.from_arrow(tab), k=10)
        assert comp["n_nodes"].tolist() == [3, 1]
        assert linking.comention_component_stats(rd.from_arrow(tab)) == (4, 2, 3)


def test_modularity_hand_graph_and_small_matches_distributed(monkeypatch):
    import pandas as pd
    import ray.data as rd

    from case_uco_ontology_map_ray.pipelines.linking import comention_modularity

    # comp {a,b,c} is a triangle via c1 (m_c = 3); comp {d,e} one edge;
    # f isolated. m = 4 undirected edges total.
    tab = _path_triples_table({"c1": ["a", "b", "c"], "c2": ["d", "e"],
                               "c3": ["f"]})
    out = comention_modularity(rd.from_arrow(tab), k=10)
    got = out.set_index("component_path")
    assert got.loc["a", "n_nodes"] == 3 and got.loc["a", "deg_sum"] == 6
    assert got.loc["a", "n_intra_edges"] == 3
    assert got.loc["d", "n_intra_edges"] == 1
    assert got.loc["f", "deg_sum"] == 0 and got.loc["f", "q_term_nano"] == 0
    # q_a = 3/4 - (6/8)^2 = 0.1875; q_d = 1/4 - (2/8)^2 = 0.1875
    assert got.loc["a", "q_term_nano"] == 187_500_000
    assert got.loc["d", "q_term_nano"] == 187_500_000
    # components partition modularity: Q = sum q_c = 0.375
    assert int(out["q_term_nano"].sum()) == 375_000_000

    _on_datasets(monkeypatch)
    dist = comention_modularity(rd.from_arrow(tab), k=10)
    pd.testing.assert_frame_equal(out, dist)


def test_assortativity_star_is_minus_one():
    import ray.data as rd

    from case_uco_ontology_map_ray.pipelines.linking import (
        comention_assortativity,
    )

    # star: center c co-mentioned with each leaf in its own conversation
    # -> every directed edge pairs degrees (3,1) or (1,3): Pearson = -1
    tab = _path_triples_table({"c1": ["c", "l1"], "c2": ["c", "l2"],
                               "c3": ["c", "l3"]})
    out = comention_assortativity(rd.from_arrow(tab))
    row = out.iloc[0]
    assert row["n_edges"] == 6
    assert row["sum_x"] == row["sum_y"] == 12  # 3*(3+1)
    assert row["assort_nano"] == -1_000_000_000


def test_assortativity_clique_degenerate_zero():
    import ray.data as rd

    from case_uco_ontology_map_ray.pipelines.linking import (
        comention_assortativity,
    )

    # a single clique: every degree equal -> zero variance, denominator 0,
    # assortativity pinned to 0 (the engine's den-guard)
    tab = _path_triples_table({"c1": ["a", "b", "c"]})
    out = comention_assortativity(rd.from_arrow(tab))
    assert out.iloc[0]["assort_nano"] == 0


def test_path_depth_profile_hand_case():
    import ray.data as rd

    from case_uco_ontology_map_ray.pipelines.linking import path_depth_profile

    # depths: a -> 1; b/c -> 2; d/e/f -> 3; duplicate mentions of the
    # same path collapse (distinct-path histogram)
    tab = _path_triples_table({"c1": ["a", "b/c"], "c2": ["d/e/f", "b/c"]})
    out = path_depth_profile(rd.from_arrow(tab))
    assert out.to_dict("records") == [
        {"depth": 1, "n_paths": 1}, {"depth": 2, "n_paths": 1},
        {"depth": 3, "n_paths": 1}]


def test_entity_timeline_hour_rollup():
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from case_uco_ontology_map_ray.pipelines.linking import entity_timeline

    # two turns in hour H (3 mentions, 2 distinct paths), one in hour H+1
    triples = _path_triples_table({"c1": ["a", "b", "a"], "c2": ["c"]})
    base = np.datetime64("2024-01-01T10:15:00", "us")
    turns = pa.table({
        "conv_id": ["c1", "c1", "c1", "c2"],
        "turn_idx": pa.array([0, 1, 2, 0], pa.int32()),
        "ts": pa.array([base, base, base + np.timedelta64(30 * 60, "s"),
                        base + np.timedelta64(3600, "s")],
                       pa.timestamp("us")),
    })
    out = entity_timeline(rd.from_arrow(triples), rd.from_arrow(turns))
    assert len(out) == 2
    assert list(out.n_mentions) == [3, 1]
    assert list(out.n_entities) == [2, 1]


def test_triangles_hand_graph_and_small_matches_distributed(monkeypatch):
    import pandas as pd
    import ray.data as rd

    from case_uco_ontology_map_ray.pipelines.linking import comention_triangles

    # triangle a-b-c (conv clique) + pendant edge c-d + isolated e
    tab = _path_triples_table({"c1": ["a", "b", "c"], "c2": ["c", "d"],
                               "c3": ["e"]})
    small = comention_triangles(rd.from_arrow(tab))
    row = small.iloc[0]
    # nodes with edges: a,b,c,d; edges: ab,ac,bc,cd; wedges: deg 2,2,3,1 ->
    # 1+1+3+0 = 5; one triangle; clustering = 3/5
    assert (row.n_nodes, row.n_edges, row.n_wedges, row.n_triangles) == (4, 4, 5, 1)
    assert row.global_clustering == 0.6
    _on_datasets(monkeypatch)
    dist = comention_triangles(rd.from_arrow(tab))
    pd.testing.assert_frame_equal(small, dist)


def test_weighted_pagerank_small_matches_distributed_and_weights_matter(monkeypatch):
    import pandas as pd
    import ray.data as rd

    from case_uco_ontology_map_ray.pipelines.linking import (
        entity_pagerank, entity_pagerank_weighted)

    # edge a-b repeats in 3 convs, a-c in 1: weighted rank must favor b
    conv_paths = {"c1": ["a", "b"], "c2": ["a", "b"], "c3": ["a", "b"],
                  "c4": ["a", "c"], "c5": ["b", "d"]}
    tab = _path_triples_table(conv_paths)
    small = entity_pagerank_weighted(rd.from_arrow(tab), iters=3, k=10)
    _on_datasets(monkeypatch)
    dist = entity_pagerank_weighted(rd.from_arrow(tab), iters=3, k=10)
    pd.testing.assert_frame_equal(small, dist)
    ranks = dict(zip(small.path, small.rank_norm))
    assert ranks["b"] > ranks["c"]  # weight pulls rank toward b
    st = dict(zip(small.path, small.strength))
    assert st["a"] == 4 and st["b"] == 4 and st["c"] == 1 and st["d"] == 1
    # unweighted treats b and c asymmetrically only via degree, weighted
    # must differ from it on this graph
    unw = entity_pagerank(rd.from_arrow(tab), iters=3, k=10)
    assert dict(zip(unw.path, unw.rank_norm)) != ranks


def test_degree_histogram_hand_graph():
    import ray.data as rd

    from case_uco_ontology_map_ray.pipelines.linking import (
        comention_degree_histogram)

    tab = _path_triples_table({"c1": ["a", "b", "c"], "c2": ["c", "d"]})
    out = comention_degree_histogram(rd.from_arrow(tab))
    # degrees: a=2, b=2, c=3, d=1 -> (1,1), (2,2), (3,1)
    assert list(zip(out.degree, out.n_nodes)) == [(1, 1), (2, 2), (3, 1)]


def test_similar_conversations_jaccard():
    import ray.data as rd

    from case_uco_ontology_map_ray.pipelines.linking import similar_conversations

    # c1={a,b,c}, c2={a,b,c,d} -> J=3/4; c3={x,y} disjoint
    tab = _path_triples_table({"c1": ["a", "b", "c"],
                               "c2": ["a", "b", "c", "d"],
                               "c3": ["x", "y"]})
    out = similar_conversations(rd.from_arrow(tab), tau=0.5)
    assert list(zip(out.conv_a, out.conv_b, out.jac)) == [("c1", "c2", 0.75)]
    # below-threshold tau excludes it
    none = similar_conversations(rd.from_arrow(tab), tau=0.8)
    assert len(none) == 0


def test_similar_conversations_lsh_finds_identical_sets():
    import ray.data as rd

    from case_uco_ontology_map_ray.pipelines.linking import (
        similar_conversations, similar_conversations_lsh)

    # identical entity sets MUST be found by LSH (identical signatures ->
    # identical bands -> candidate -> jac 1.0); plus a near pair
    tab = _path_triples_table({"c1": ["a", "b", "c"], "c2": ["a", "b", "c"],
                               "c3": ["a", "b", "c", "d"], "c4": ["x", "y"]})
    lsh = similar_conversations_lsh(rd.from_arrow(tab), tau=0.5)
    got = set(zip(lsh.conv_a, lsh.conv_b))
    assert ("c1", "c2") in got
    exact = similar_conversations(rd.from_arrow(tab), tau=0.5)
    ex = set(zip(exact.conv_a, exact.conv_b))
    assert got <= ex  # candidates-subset contract
    j = dict(zip(zip(lsh.conv_a, lsh.conv_b), lsh.jac))
    assert j[("c1", "c2")] == 1.0


def test_entity_bfs_hand_chain_and_hop_cap():
    import ray.data as rd

    from case_uco_ontology_map_ray.pipelines.linking import entity_bfs

    # chain a-b-c-d-e plus isolated f: source = 'a' (min path among edge
    # endpoints), so dists are 0..4 and f is unreachable (-1)
    tab = _path_triples_table({"c1": ["a", "b"], "c2": ["b", "c"],
                               "c3": ["c", "d"], "c4": ["d", "e"],
                               "c5": ["f"]})
    out = entity_bfs(rd.from_arrow(tab), max_hops=6)
    assert list(zip(out.dist, out.n_nodes)) == [
        (-1, 1), (0, 1), (1, 1), (2, 1), (3, 1), (4, 1)]
    # hop cap: with max_hops=2 nodes d, e fall into the -1 bucket with f
    capped = entity_bfs(rd.from_arrow(tab), max_hops=2)
    assert list(zip(capped.dist, capped.n_nodes)) == [
        (-1, 3), (0, 1), (1, 1), (2, 1)]


def test_entity_bfs_small_matches_distributed(monkeypatch):
    import pandas as pd
    import ray.data as rd

    from case_uco_ontology_map_ray.pipelines.linking import entity_bfs

    tab = _path_triples_table({"c1": ["a", "b", "c"], "c2": ["c", "d"],
                               "c3": ["d", "e"], "c4": ["x", "y"],
                               "c5": ["z"]})
    small = entity_bfs(rd.from_arrow(tab), max_hops=4)
    _on_datasets(monkeypatch)
    dist = entity_bfs(rd.from_arrow(tab), max_hops=4)
    pd.testing.assert_frame_equal(small, dist)


def test_link_prediction_aa_hand_graph():
    import ray.data as rd

    from case_uco_ontology_map_ray.pipelines.linking import link_prediction_aa

    # path a-b-c: only non-adjacent co-wedge pair is (a, c) via center b
    # (deg 2) -> aa_nano = round_away(1e9 / ln 2) = 1442695041
    tab = _path_triples_table({"c1": ["a", "b"], "c2": ["b", "c"]})
    out = link_prediction_aa(rd.from_arrow(tab), k=10)
    assert list(zip(out.path_a, out.path_b, out.aa_nano)) == [
        ("a", "c", 1442695041)]
    assert out.aa_score.tolist() == [1.4427]

    # square a-b-c-d-a: two candidates (a,c) and (b,d), each with TWO
    # deg-2 common neighbors -> 2 * 1442695041
    sq = _path_triples_table({"c1": ["a", "b"], "c2": ["b", "c"],
                              "c3": ["c", "d"], "c4": ["d", "a"]})
    out2 = link_prediction_aa(rd.from_arrow(sq), k=10)
    assert list(zip(out2.path_a, out2.path_b, out2.aa_nano)) == [
        ("a", "c", 2 * 1442695041), ("b", "d", 2 * 1442695041)]


def test_link_prediction_aa_small_matches_distributed(monkeypatch):
    import pandas as pd
    import ray.data as rd

    from case_uco_ontology_map_ray.pipelines.linking import link_prediction_aa

    tab = _path_triples_table({"c1": ["a", "b", "c"], "c2": ["a", "d"],
                               "c3": ["b", "e"], "c4": ["d", "e", "f"],
                               "c5": ["c", "f"]})
    small = link_prediction_aa(rd.from_arrow(tab), k=25)
    _on_datasets(monkeypatch)
    dist = link_prediction_aa(rd.from_arrow(tab), k=25)
    pd.testing.assert_frame_equal(small, dist)


def test_entity_kcore_hand_graph():
    import ray.data as rd

    from case_uco_ontology_map_ray.pipelines.linking import entity_kcore

    # 2-core: conversation clique {a,b,c} survives (triangle, all deg 2);
    # the d-e-f chain peels away (endpoints deg 1, then e loses both)
    tab = _path_triples_table({"c1": ["a", "b", "c"], "c2": ["d", "e"],
                               "c3": ["e", "f"]})
    out = entity_kcore(rd.from_arrow(tab), kk=2, rounds=12, k=10)
    assert list(zip(out.path, out.core_degree)) == [
        ("a", 2), ("b", 2), ("c", 2)]


def test_entity_kcore_peels_transitively():
    import ray.data as rd

    from case_uco_ontology_map_ray.pipelines.linking import entity_kcore

    # star: the leaves die in round 1 (deg 1 < 2), the hub only in round 2
    # (its neighbors are gone) — a 1-round peel would wrongly keep the hub
    tab = _path_triples_table({f"c{i}": ["h", f"x{i}"] for i in range(4)})
    out = entity_kcore(rd.from_arrow(tab), kk=2, rounds=12, k=10)
    assert out.empty


def test_entity_kcore_small_matches_distributed(monkeypatch):
    import pandas as pd
    import ray.data as rd

    from case_uco_ontology_map_ray.pipelines.linking import entity_kcore

    tab = _path_triples_table({"c1": ["a", "b", "c", "d"], "c2": ["a", "e"],
                               "c3": ["b", "e"], "c4": ["e", "f"]})
    small = entity_kcore(rd.from_arrow(tab), kk=2, rounds=12, k=10)
    _on_datasets(monkeypatch)
    dist = entity_kcore(rd.from_arrow(tab), kk=2, rounds=12, k=10)
    pd.testing.assert_frame_equal(small, dist)


def test_personalized_pagerank_concentrates_on_seed_neighborhood():
    import ray.data as rd

    from case_uco_ontology_map_ray.pipelines.linking import (
        entity_pagerank_personalized,
    )

    # two cliques bridged by one conv; seed = "a" (lexicographic min) —
    # its own clique must outrank the far one at equal degrees
    tab = _path_triples_table({"c1": ["a", "b", "c"], "c2": ["x", "y", "z"],
                               "c3": ["c", "x"]})
    out = entity_pagerank_personalized(rd.from_arrow(tab), iters=3, k=10)
    r = dict(zip(out.path, out.ppr))
    assert min(r["a"], r["b"], r["c"]) > max(r["x"], r["y"], r["z"])
    assert r["y"] == r["z"]  # symmetric far-clique leaves


def test_personalized_pagerank_small_matches_distributed(monkeypatch):
    import pandas as pd
    import ray.data as rd

    from case_uco_ontology_map_ray.pipelines.linking import (
        entity_pagerank_personalized,
    )

    tab = _path_triples_table({"c1": ["a", "b", "c"], "c2": ["a", "d"],
                               "c3": ["b", "e"], "c4": ["d", "e", "f"]})
    small = entity_pagerank_personalized(rd.from_arrow(tab), iters=3, k=10)
    _on_datasets(monkeypatch)
    dist = entity_pagerank_personalized(rd.from_arrow(tab), iters=3, k=10)
    pd.testing.assert_frame_equal(small, dist)


def test_edge_cap_agrees_on_both_sides(monkeypatch):
    """A conversation with more entities than the per-conversation cap:
    both sides of the graph core keep the same capped edge set, so
    PageRank and weighted PageRank agree, and the top pairs (Datasets at
    every size) keep only the capped pairs."""
    import pandas as pd
    import ray.data as rd

    from case_uco_ontology_map_ray.ops import graph
    from case_uco_ontology_map_ray.pipelines.linking import (
        entity_pagerank, entity_pagerank_weighted, top_comention_pairs)

    monkeypatch.setattr(graph, "MAX_CONV_ENTITIES", 40)
    tab = _path_triples_table({"c1": [f"p{i:02d}" for i in range(60)],
                               "c2": ["p00", "q"], "c3": ["p01", "q"]})
    queries = [lambda ds: entity_pagerank(ds, iters=3, k=100),
               lambda ds: entity_pagerank_weighted(ds, iters=3, k=100),
               lambda ds: top_comention_pairs(ds, k=1000)]
    small = [q(rd.from_arrow(tab)) for q in queries]
    _on_datasets(monkeypatch)
    dist = [q(rd.from_arrow(tab)) for q in queries]
    for a, b in zip(small, dist):
        pd.testing.assert_frame_equal(a, b)
    # c1 contributes the C(40, 2) pairs of its 40 kept entities; c2 and c3
    # one pair each
    assert len(small[2]) == 40 * 39 // 2 + 2


def test_graph_core_runs_the_triple_stage_once(monkeypatch, tmp_path):
    """A Dataset-side graph query builds its lazy triple input once: the
    mention stream is materialized by the core and every stage reads it."""
    import pyarrow as pa
    import ray.data as rd

    from case_uco_ontology_map_ray.pipelines.kg import triples_from_transcripts
    from case_uco_ontology_map_ray.pipelines.linking import entity_pagerank
    from case_uco_ontology_map_ray.sources.transcripts import conversations_table

    tab = conversations_table(range(4), 12)
    log = tmp_path / "rows"

    def count_rows(t: pa.Table) -> pa.Table:
        with open(log, "a") as f:
            f.write(f"{t.num_rows}\n")
        return t

    triples = triples_from_transcripts(
        rd.from_arrow(tab).map_batches(count_rows, batch_format="pyarrow"))
    _on_datasets(monkeypatch)
    entity_pagerank(triples, iters=1, k=5)
    assert sum(map(int, log.read_text().split())) == tab.num_rows


def _docs_with_dups():
    import ray.data as rd

    base = [
        "the quick brown fox jumps over the lazy dog and runs far away",
        "the quick brown fox jumps over the lazy dog and runs far off",
        "completely different content about database query engines and joins",
        "another unrelated document mentioning streams windows and watermarks",
        "the quick brown fox jumps over the lazy dog and runs far away",  # exact dup of 0
    ]
    return rd.from_items([{"doc_id": i, "text": t} for i, t in enumerate(base)])


def test_minhash_lsh_clusters_near_dups():
    from case_uco_ontology_map_ray.ops.dedup import minhash_lsh_dedup

    out = minhash_lsh_dedup(_docs_with_dups(), num_perm=64, bands=32,
                            shingle_k=3, tau=0.4).to_pandas()
    cl = dict(zip(out.doc_id, out.cluster_id))
    assert cl[0] == cl[4] == 0       # exact dups share a cluster
    assert cl[1] == 0                # near dup joins the cluster
    assert cl[2] == 2 and cl[3] == 3  # unrelated docs stay singletons


def test_minhash_small_matches_distributed():
    """The collected small band path must emit the identical clustering to
    the two-exchange distributed path (small_band_rows=0 forces it)."""
    import ray.data as rd

    from case_uco_ontology_map_ray.ops.dedup import minhash_lsh_dedup

    rng = np.random.RandomState(7)
    words = ["alpha", "beta", "gamma", "delta", "echo", "fox", "golf",
             "hotel", "india", "julia", "kilo", "lima"]
    rows = []
    for i in range(240):
        base = [words[j] for j in rng.randint(0, len(words), 12)]
        rows.append({"doc_id": 3 * i, "text": " ".join(base)})
        mut = list(base)
        mut[rng.randint(0, len(mut))] = words[rng.randint(0, len(words))]
        rows.append({"doc_id": 3 * i + 1, "text": " ".join(mut)})  # near dup
        rows.append({"doc_id": 3 * i + 2, "text": " ".join(base)})  # exact dup
    ds = rd.from_items(rows).repartition(6)

    kw = dict(num_perm=32, bands=16, shingle_k=2, tau=0.5)
    driver = minhash_lsh_dedup(ds, **kw).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    small = minhash_lsh_dedup(ds, driver_sketch_bytes=0, **kw).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    dist = minhash_lsh_dedup(ds, small_band_rows=0, **kw).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(small, dist)
    # the all-driver path (default at this scale) pins the same clustering
    pd.testing.assert_frame_equal(driver.astype(small.dtypes.to_dict()),
                                  small)
    # sanity: near/exact dups actually clustered
    assert (driver.groupby("cluster_id").size() > 1).any()
    # sanity: the planted exact dups actually cluster
    cl = dict(zip(small.doc_id, small.cluster_id))
    assert cl[0] == cl[2]
