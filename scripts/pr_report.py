"""Precision/recall report vs the reference-derived goldens.

The BASELINE gate is P >= 0.95 and R >= 0.95 on (subj, pred, obj, obj_dt)
triples vs the reference's deterministic output on its own fixtures. The
test suite asserts exact set equality (P = R = 1.0); this script prints the
numbers explicitly.

Usage: python scripts/pr_report.py
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from case_uco_ontology_map_ray.config import ONTOLOGY_MAPS  # noqa: E402
from case_uco_ontology_map_ray.kg.mapper import ArtifactMapper  # noqa: E402
from case_uco_ontology_map_ray.kg.records import extract_records  # noqa: E402
from case_uco_ontology_map_ray.stages.kg_stage import TurnTriples  # noqa: E402

sys.path.insert(0, str(ROOT / "tests"))
from test_kg_core import (  # noqa: E402
    MFT_PAYLOAD,
    PREFETCH_PAYLOAD,
    REL_MAP,
)

GOLDENS = ROOT / "tests" / "goldens"

CASES = {
    "prefetch": (PREFETCH_PAYLOAD, ONTOLOGY_MAPS["Windows Prefetch execution cache records"]),
    "mft": (MFT_PAYLOAD, ONTOLOGY_MAPS["MFT Records"]),
}

CUSTOM_CASES = {
    "custom_mft": {
        "artifact_type": "MFT Record", "description": "MFT record with extended attributes",
        "source": "ntfs_analysis_tool",
        "record": {"EntryNumber": 77, "SecurityId": "S-1-5-21-1004",
                   "ObjectIdFileDroid": "droid-0001",
                   "ZoneIdContents": "[ZoneTransfer] ZoneId=3"},
    },
    "custom_iot": {
        "artifact_type": "IoT Sensor Reading", "description": "sensor data",
        "source": "iot_gateway",
        "record": {"temperature": 23.5, "humidity": 41, "active": True, "sensor": "t-100"},
    },
}


def triples_for(payload, omap=None):
    got = set()
    if omap is not None:
        mapper = ArtifactMapper(omap)
        for rec in extract_records(payload):
            _, t = mapper.process_record(rec)
            got.update(t)
    else:
        stage = TurnTriples()
        for rec in extract_records(payload):
            mapper = stage._mapper_for(rec.get("artifact_type"), rec)
            _, t = mapper.process_record(rec)
            got.update(t)
    return got


def report(name, got):
    with open(GOLDENS / f"{name}_triples.json") as f:
        want = {tuple(t) for t in json.load(f)}
    tp = len(got & want)
    p = tp / len(got) if got else 1.0
    r = tp / len(want) if want else 1.0
    print(f"{name:22s} ref={len(want):3d} ours={len(got):3d} "
          f"P={p:.4f} R={r:.4f} {'PASS' if p >= 0.95 and r >= 0.95 else 'FAIL'}")
    return p, r


def main():
    print("Triple-level P/R vs reference deterministic output (gate: >=0.95):")
    ps, rs = [], []
    for name, (payload, omap) in CASES.items():
        p, r = report(name, triples_for(payload, omap))
        ps.append(p); rs.append(r)
    for name, payload in CUSTOM_CASES.items():
        p, r = report(name, triples_for(payload))
        ps.append(p); rs.append(r)
    print(f"{'MICRO-AVG':22s} P={sum(ps)/len(ps):.4f} R={sum(rs)/len(rs):.4f}")


if __name__ == "__main__":
    main()
