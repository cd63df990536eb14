"""Expected triple shapes for the benchmark's output checks.

Two sources, kept apart from the program:

- ``golden_shapes`` reads the reference-generated goldens in
  ``tests/goldens/*_triples.json``: per artifact type, the triples each record
  yields per predicate (arity) and the class of the record's object node.
- ``LITERAL_ROUTES`` is the frozen field -> predicate contract for literal
  triples: (artifact_type, pred, JSON path into the tool payload's record).
  Multi-valued fields appear once per element. Every run checks that the
  table agrees with the golden arity. Rebuild it with
  ``python3 perfbench/routing.py`` (run from the repo root).
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

GOLDEN_TYPES = {
    "browser": "Browser URL history records",
    "cookie": "Browser cookie records",
    "custom_iot": "IoT Sensor Reading",
    "custom_mft": "MFT Record",
    "custom_usn": "NTFS USN journal records",
    "evtx": "Windows Event Log records",
    "mft": "MFT Records",
    "prefetch": "Windows Prefetch execution cache records",
    "registry": "Windows Registry run key entries",
}

# Predicates whose objects are file-path mentions (the entities that
# canonicalization links).
PATH_PREDS = ("uco-observable:filePath", "uco-observable:applicationFileName",
              "uco-observable:accessedFile", "uco-observable:accessedDirectory")

LITERAL_ROUTES = [
    ("Browser URL history records", "uco-observable:firstVisit", "FirstVisitTime"),
    ("Browser URL history records", "uco-observable:lastVisit", "LastVisitTime"),
    ("Browser URL history records", "uco-observable:pageTitle", "PageTitle"),
    ("Browser URL history records", "uco-observable:url", "URL"),
    ("Browser URL history records", "uco-observable:visitCount", "VisitCount"),
    ("Browser cookie records", "uco-observable:accessedTime", "LastAccessTime"),
    ("Browser cookie records", "uco-observable:cookieName", "CookieName"),
    ("Browser cookie records", "uco-observable:cookiePath", "CookiePath"),
    ("Browser cookie records", "uco-observable:expirationTime", "ExpirationTime"),
    ("Browser cookie records", "uco-observable:isSecure", "IsSecure"),
    ("Browser cookie records", "uco-observable:observableCreatedTime", "CreationTime"),
    ("IoT Sensor Reading", "dfc-ext:active", "active"),
    ("IoT Sensor Reading", "dfc-ext:humidity", "humidity"),
    ("IoT Sensor Reading", "dfc-ext:sensor", "sensor"),
    ("IoT Sensor Reading", "dfc-ext:temperature", "temperature"),
    ("MFT Record", "dfc-ext:entrynumber", "EntryNumber"),
    ("MFT Record", "dfc-ext:objectidfiledroid", "ObjectIdFileDroid"),
    ("MFT Record", "dfc-ext:securityid", "SecurityId"),
    ("MFT Record", "dfc-ext:zoneidcontents", "ZoneIdContents"),
    ("MFT Records", "uco-observable:accessedTime", "SI_Accessed"),
    ("MFT Records", "uco-observable:allocationStatus", "InUse"),
    ("MFT Records", "uco-observable:createdTime", "FN_Created"),
    ("MFT Records", "uco-observable:filePath", "FullPath"),
    ("MFT Records", "uco-observable:mftFileID", "EntryNumber"),
    ("MFT Records", "uco-observable:mftParentID", "ParentEntryNumber"),
    ("MFT Records", "uco-observable:modifiedTime", "FN_Modified"),
    ("MFT Records", "uco-observable:sequenceNumber", "SequenceNumber"),
    ("NTFS USN journal records", "dfc-ext:filename", "FileName"),
    ("NTFS USN journal records", "dfc-ext:reason", "Reason"),
    ("NTFS USN journal records", "dfc-ext:timestamp", "Timestamp"),
    ("NTFS USN journal records", "dfc-ext:usn", "Usn"),
    ("Windows Event Log records", "uco-observable:eventID", "EventID"),
    ("Windows Event Log records", "uco-observable:eventRecordID", "RecordNumber"),
    ("Windows Event Log records", "uco-observable:eventRecordServiceName", "Channel"),
    ("Windows Event Log records", "uco-observable:eventRecordText", "Message"),
    ("Windows Event Log records", "uco-observable:eventType", "Level"),
    ("Windows Event Log records", "uco-observable:startTime", "TimeCreated"),
    ("Windows Prefetch execution cache records", "core:source", "SourceFilename"),
    ("Windows Prefetch execution cache records", "core:target", "VolumeSerialNumber"),
    ("Windows Prefetch execution cache records", "uco-observable:accessedFile", "ReferencedPaths[0]"),
    ("Windows Prefetch execution cache records", "uco-observable:accessedFile", "ReferencedPaths[1]"),
    ("Windows Prefetch execution cache records", "uco-observable:applicationFileName", "SourceFilename"),
    ("Windows Prefetch execution cache records", "uco-observable:firstRun", "FileCreatedTime"),
    ("Windows Prefetch execution cache records", "uco-observable:lastRun", "FileModifiedTime"),
    ("Windows Prefetch execution cache records", "uco-observable:timesExecuted", "RunCount"),
    ("Windows Prefetch execution cache records", "uco-observable:volume", "VolumeSerialNumber"),
    ("Windows Registry run key entries", "uco-observable:key", "KeyPath"),
    ("Windows Registry run key entries", "uco-observable:modifiedTime", "LastWriteTime"),
    ("Windows Registry run key entries", "uco-observable:numberOfSubkeys", "SubkeyCount"),
]


def golden_shapes(goldens_dir: Path) -> tuple[dict, dict]:
    """({(artifact_type, pred): triples per record}, {artifact_type: object
    node class}). A record's object node is the subject carrying
    ``uco-core:hasFacet``; the golden fixtures hold one or two records."""
    arity, obj_class = {}, {}
    for stem, atype in GOLDEN_TYPES.items():
        triples = json.loads((goldens_dir / f"{stem}_triples.json").read_text())
        objects = {s for s, p, _, _ in triples if p == "uco-core:hasFacet"}
        classes = {o for s, p, o, _ in triples if p == "rdf:type" and s in objects}
        if len(classes) != 1:
            raise ValueError(f"{stem}: object node classes {classes}")
        obj_class[atype] = classes.pop()
        for pred, n in Counter(p for _, p, _, _ in triples).items():
            if n % len(objects):
                raise ValueError(f"{stem}: {n} {pred} triples for {len(objects)} records")
            arity[(atype, pred)] = n // len(objects)
    routed = Counter((t, p) for t, p, _ in LITERAL_ROUTES)
    for key, n in routed.items():
        if arity.get(key) != n:
            raise ValueError(f"routing table gives {n} {key} per record, "
                             f"goldens give {arity.get(key)}")
    return arity, obj_class


def _rebuild() -> None:
    """Print LITERAL_ROUTES by feeding the mapper one record per type whose
    field values are all distinct sentinels and reading where each lands."""
    import sys

    sys.path.insert(0, str(Path.cwd()))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import numpy as np

    from case_uco_ontology_map_ray.stages.kg_stage import TurnTriples
    from gen import KINDS, SHARED, _Paths, _record

    stage = TurnTriples()
    rng = np.random.default_rng(0)
    rows = []
    for kind in KINDS:
        atype, desc, source, _ = SHARED[kind]
        rec = _record(kind, rng, 7, _Paths(rng, 0, 0))
        sentinel, paths = {}, {}
        for i, (k, v) in enumerate(rec.items()):
            if isinstance(v, list):
                for j in range(len(v)):
                    paths[f"s{i}x{j}"] = f"{k}[{j}]"
                rec[k] = [f"s{i}x{j}" for j in range(len(v))]
            elif isinstance(v, str):
                paths[f"s{i}"] = k
                rec[k] = f"s{i}"
            else:
                sentinel[k] = v
        flat = {"artifact_type": atype, "description": desc, "source": source, **rec}
        _, triples = stage._mapper_for(atype, flat).process_record(flat)
        for _, p, o, dt in triples:
            if dt == "@id":
                continue
            field = paths.get(o) or next(k for k, v in sentinel.items()
                                         if o in (str(v), json.dumps(v), repr(v)))
            rows.append((atype, p, field))
    for r in sorted(rows):
        print(f"    {r!r},")


if __name__ == "__main__":
    _rebuild()
