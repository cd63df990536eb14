"""CountMin sketch + incremental-state merge — the session-9 operator
additions."""

import numpy as np
import pandas as pd


def test_countmin_overestimates_and_merge_invariance():
    from case_uco_ontology_map_ray.ops.sketches import CountMin

    rng = np.random.default_rng(0)
    keys = rng.integers(0, 2**63, 3000, dtype=np.int64).astype(np.uint64)
    counts = rng.integers(1, 40, 3000)
    whole = CountMin(width=1024, depth=4)
    whole.add_hashes(keys, counts)
    a, b = CountMin(width=1024, depth=4), CountMin(width=1024, depth=4)
    a.add_hashes(keys[:1500], counts[:1500])
    b.add_hashes(keys[1500:], counts[1500:])
    merged = a.merge(b)
    assert (merged.table == whole.table).all()

    true = pd.Series(counts, index=pd.Series(keys)).groupby(level=0).sum()
    probe = keys[:100]
    est = whole.estimate_hashes(probe)
    tv = np.array([true[k] for k in probe])
    assert (est >= tv).all()  # the certain guarantee
    # serialization round-trip
    back = CountMin.from_bytes(whole.to_bytes(), width=1024, depth=4)
    assert (back.estimate_hashes(probe) == est).all()


def test_countmin_from_partials_matches_driver_build(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from case_uco_ontology_map_ray.ops.sketches import (
        CountMin,
        countmin_from_partials,
    )

    rng = np.random.default_rng(1)
    h = rng.integers(0, 2**63, 500, dtype=np.int64)
    c = rng.integers(1, 9, 500)
    ds = rd.from_arrow(pa.table({"h": h, "n": c})).repartition(7)
    got = countmin_from_partials(ds, "h", "n", width=512, depth=4)
    whole = CountMin(width=512, depth=4)
    whole.add_hashes(h.astype(np.uint64), c)
    assert (got.table == whole.table).all()


def test_incremental_state_merge_equals_full_recompute(ray_session):
    from case_uco_ontology_map_ray.pipelines.analytics import (
        incremental_user_event_state,
    )

    sf = "/root/testdata/sf0.001"
    full = incremental_user_event_state(sf)  # default mid-corpus cutoff
    # a cutoff before all data makes the prior state empty; one after all
    # data makes the delta empty — all three forms must agree exactly
    all_delta = incremental_user_event_state(sf, cutoff="2000-01-01")
    all_prior = incremental_user_event_state(sf, cutoff="2100-01-01")
    pd.testing.assert_frame_equal(full, all_delta)
    pd.testing.assert_frame_equal(full, all_prior)
