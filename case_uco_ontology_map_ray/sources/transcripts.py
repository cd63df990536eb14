"""Transcript table source: deterministic synthetic generator + reader.

Schema (BASELINE.json ``input_hint``):
    conv_id: string, turn_idx: int32, role: string, text: string,
    tool: string, ts: timestamp[us]

Tool-role turns embed ONE serialized artifact payload (JSON) in ``text``,
drawn from the reference's fixture shapes (FIXTURES.md §2): Windows Prefetch,
MFT, two custom-facet artifact types, (round 3) a browser URL-history type
that exercises the deterministic auto-mapper (ontology/automap.py), and
(round 4) registry run keys / EVTX event records / browser cookies (frozen
UCO maps) plus USN journal records (dfc-ext custom-facet fallback).
Everything is a pure function of
(seed, conv_index, turn_idx) — no RNG state carried across rows — so any
shard can be regenerated independently and the table is identical across
runs and across parallelism levels.

Conversation lengths follow a Zipf-ish skew (conversation 0 is the "hot"
conversation) to exercise salted groupby(conv_id) handling downstream.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pyarrow as pa

SCHEMA = pa.schema(
    [
        pa.field("conv_id", pa.string()),
        pa.field("turn_idx", pa.int32()),
        pa.field("role", pa.string()),
        pa.field("text", pa.string()),
        pa.field("tool", pa.string()),
        pa.field("ts", pa.timestamp("us")),
    ]
)

ARTIFACT_KINDS = ("prefetch", "mft", "custom_mft", "custom_iot", "browser_history",
                  "registry_run_key", "evtx_event", "browser_cookie", "usn_journal")

_EXE_NAMES = ["MALICIOUS.EXE", "NOTEPAD.EXE", "CALC.EXE", "POWERSHELL.EXE",
              "CHROME.EXE", "SVCHOST.EXE", "EXPLORER.EXE", "WINWORD.EXE"]
_USER_TEXTS = [
    "Please analyze the prefetch artifacts from the triage image.",
    "What executables ran on this host recently?",
    "Pull the MFT entries for the suspicious directory.",
    "Summarize filesystem activity for the incident window.",
]
_ASSISTANT_TEXTS = [
    "Running the parser tool against the evidence now.",
    "I extracted the records below; mapping them to CASE/UCO next.",
    "The artifact records are consistent with program execution.",
    "Filesystem metadata retrieved; see the structured records.",
]

_EPOCH_US = 1_700_000_000_000_000  # fixed base timestamp (2023-11-14T22:13:20Z)


def conversation_length(conv_index: int, mean_turns: int = 12, hot_factor: int = 200) -> int:
    """Deterministic skewed length: conv 0 is ~hot_factor x mean, a harmonic
    tail for the next few, then a hash-jittered mean for the bulk."""
    if conv_index == 0:
        return mean_turns * hot_factor
    if conv_index < 8:
        return mean_turns * (16 // conv_index + 1)
    h = int(hashlib.md5(f"len:{conv_index}".encode()).hexdigest()[:8], 16)
    return 3 + (h % (2 * mean_turns))


def _payload_for(kind: str, conv_index: int, turn_idx: int) -> dict:
    """Deterministic artifact payload embedded in a tool turn."""
    h = int(hashlib.md5(f"{kind}:{conv_index}:{turn_idx}".encode()).hexdigest()[:12], 16)
    exe = _EXE_NAMES[h % len(_EXE_NAMES)]
    t0 = 1_600_000_000 + (h % 100_000_000)
    iso = lambda t: f"{1970 + t // 31_556_952}-{(t // 2_629_746) % 12 + 1:02d}-{t % 28 + 1:02d}T{t % 24:02d}:{t % 60:02d}:{(t * 7) % 60:02d}Z"
    if kind == "prefetch":
        return {
            "artifact_type": "Windows Prefetch execution cache records",
            "description": "Windows Prefetch files parsed from C:\\Windows\\Prefetch",
            "source": "prefetch_parser",
            "record": {
                "SourceFilename": f"C\\Windows\\Prefetch\\{exe}-{h % 0xFFFFFFFF:08X}.pf",
                "ExecutableName": exe,
                "PrefetchHash": f"{h % 0xFFFFFFFF:08X}",
                "RunCount": 1 + h % 64,
                "LastRunTime": iso(t0 + 3600),
                "FileCreatedTime": iso(t0),
                "FileModifiedTime": iso(t0 + 3600),
                "VolumeSerialNumber": f"{h % 0xFFFF:04X}-{(h >> 16) % 0xFFFF:04X}",
                "ReferencedPaths": [
                    f"C\\Windows\\System32\\{exe.lower()}",
                    "C\\Windows\\System32\\kernel32.dll",
                ],
            },
        }
    if kind == "mft":
        return {
            "artifact_type": "MFT Records",
            "description": "Master File Table records containing filesystem metadata",
            "source": "NTFS filesystem analysis",
            "record": {
                "EntryNumber": h % 100_000,
                "SequenceNumber": 1 + h % 16,
                "ParentEntryNumber": h % 5000,
                "FullPath": f"\\Windows\\Prefetch\\{exe}-{h % 0xFFFFFFFF:08X}.pf",
                "InUse": (h % 7) != 0,
                "SI_Created": iso(t0),
                "SI_Modified": iso(t0 + 3600),
                "SI_Accessed": iso(t0 + 7200),
                "FN_Created": iso(t0),
                "FN_Modified": iso(t0 + 3600),
            },
        }
    if kind == "browser_history":
        # unknown-to-the-frozen-maps type: exercised by the deterministic
        # auto-mapper (ontology/automap.py -> URLHistory/URLHistoryFacet)
        host = ["intranet.corp", "files.example.com", "update.vendor.net",
                "mail.example.org"][h % 4]
        return {
            "artifact_type": "Browser URL history records",
            "description": "URL history rows parsed from the browser profile",
            "source": "browser_history_parser",
            "record": {
                "URL": f"https://{host}/path/{h % 10_000:04d}",
                "PageTitle": f"Page {h % 997}",
                "VisitCount": 1 + h % 40,
                "FirstVisitTime": iso(t0),
                "LastVisitTime": iso(t0 + 7200),
                "BrowserName": ["Chrome", "Edge", "Firefox"][h % 3],
            },
        }
    if kind == "registry_run_key":
        # frozen-map type (config.ONTOLOGY_MAPS): WindowsRegistryKey +
        # WindowsRegistryKeyFacet; ValueName/ValueData intentionally unmapped
        hive = ["HKLM\\Software\\Microsoft\\Windows\\CurrentVersion\\Run",
                "HKLM\\Software\\Microsoft\\Windows\\CurrentVersion\\RunOnce",
                "HKCU\\Software\\Microsoft\\Windows\\CurrentVersion\\Run"][h % 3]
        return {
            "artifact_type": "Windows Registry run key entries",
            "description": "Run/RunOnce key values parsed from the registry hives",
            "source": "registry_parser",
            "record": {
                "KeyPath": hive,
                "ValueName": f"Updater{h % 97}",
                "ValueData": f"C:\\ProgramData\\{exe.lower()}",
                "LastWriteTime": iso(t0 + 1800),
                "SubkeyCount": h % 32,
            },
        }
    if kind == "evtx_event":
        return {
            "artifact_type": "Windows Event Log records",
            "description": "EVTX records parsed from the Security channel",
            "source": "evtx_parser",
            "record": {
                "EventID": str(4624 + h % 5),
                "RecordNumber": str(100_000 + h % 1_000_000),
                "Channel": ["Security", "System", "Application"][h % 3],
                "Provider": "Microsoft-Windows-Security-Auditing",
                "TimeCreated": iso(t0 + 60),
                "Message": f"Logon event for {exe} session {h % 1000}",
                "Level": ["Information", "Warning", "Error"][h % 3],
            },
        }
    if kind == "browser_cookie":
        host = [".example.com", ".intranet.corp", ".vendor.net"][h % 3]
        return {
            "artifact_type": "Browser cookie records",
            "description": "Cookie rows parsed from the browser profile",
            "source": "cookie_parser",
            "record": {
                "CookieName": ["session_id", "auth_token", "tracker"][h % 3],
                "CookiePath": "/",
                "HostKey": host,
                "CreationTime": iso(t0),
                "LastAccessTime": iso(t0 + 3600),
                "ExpirationTime": iso(t0 + 86_400),
                "IsSecure": (h % 2) == 0,
            },
        }
    if kind == "usn_journal":
        # no UCO facet models USN change-journal entries: exercises the
        # dfc-ext custom-facet fallback with a realistic type
        return {
            "artifact_type": "NTFS USN journal records",
            "description": "USN change-journal entries from the NTFS volume",
            "source": "usn_parser",
            "record": {
                "Usn": 100_000 + h % 10_000_000,
                "FileName": exe.lower(),
                "Reason": ["FILE_CREATE", "DATA_EXTEND", "FILE_DELETE",
                           "RENAME_NEW_NAME"][h % 4],
                "Timestamp": iso(t0 + 120),
            },
        }
    if kind == "custom_mft":
        return {
            "artifact_type": "MFT Record",
            "description": "MFT record with extended attributes",
            "source": "ntfs_analysis_tool",
            "record": {
                "EntryNumber": h % 100_000,
                "SecurityId": f"S-1-5-21-{h % 10_000}",
                "ObjectIdFileDroid": f"droid-{h % 10_000:04d}",
                "ZoneIdContents": f"[ZoneTransfer] ZoneId={h % 4}",
            },
        }
    return {
        "artifact_type": "IoT Sensor Reading",
        "description": "sensor data",
        "source": "iot_gateway",
        "record": {
            "temperature": round(15.0 + (h % 2000) / 100.0, 2),
            "humidity": 20 + h % 60,
            "active": (h % 3) != 0,
            "sensor": f"t-{h % 500:03d}",
        },
    }


def generate_conversation(conv_index: int, mean_turns: int = 12) -> dict[str, list]:
    """Columnar rows for one conversation (pure function of conv_index)."""
    n = conversation_length(conv_index, mean_turns)
    conv_id = f"conv-{conv_index:08d}"
    cols: dict[str, list] = {k: [] for k in ("conv_id", "turn_idx", "role", "text", "tool", "ts")}
    base_ts = _EPOCH_US + (conv_index % 10_000) * 60_000_000
    for t in range(n):
        phase = t % 3
        if phase == 0:
            role, tool = "user", ""
            text = _USER_TEXTS[(conv_index + t) % len(_USER_TEXTS)]
        elif phase == 1:
            role, tool = "assistant", ""
            text = _ASSISTANT_TEXTS[(conv_index + t) % len(_ASSISTANT_TEXTS)]
        else:
            kind = ARTIFACT_KINDS[(conv_index + t // 3) % len(ARTIFACT_KINDS)]
            role = "tool"
            tool = {"prefetch": "prefetch_parser", "mft": "ntfs_analysis_tool",
                    "custom_mft": "ntfs_analysis_tool", "custom_iot": "iot_gateway",
                    "browser_history": "browser_history_parser",
                    "registry_run_key": "registry_parser",
                    "evtx_event": "evtx_parser",
                    "browser_cookie": "cookie_parser",
                    "usn_journal": "usn_parser"}[kind]
            text = json.dumps(_payload_for(kind, conv_index, t), sort_keys=True)
        cols["conv_id"].append(conv_id)
        cols["turn_idx"].append(t)
        cols["role"].append(role)
        cols["text"].append(text)
        cols["tool"].append(tool)
        cols["ts"].append(base_ts + t * 30_000_000)
    return cols


def conversations_table(conv_indices: list[int] | np.ndarray, mean_turns: int = 12) -> pa.Table:
    cols: dict[str, list] = {k: [] for k in ("conv_id", "turn_idx", "role", "text", "tool", "ts")}
    for ci in conv_indices:
        c = generate_conversation(int(ci), mean_turns)
        for k in cols:
            cols[k].extend(c[k])
    return pa.table(
        {
            "conv_id": pa.array(cols["conv_id"], pa.string()),
            "turn_idx": pa.array(cols["turn_idx"], pa.int32()),
            "role": pa.array(cols["role"], pa.string()),
            "text": pa.array(cols["text"], pa.string()),
            "tool": pa.array(cols["tool"], pa.string()),
            "ts": pa.array(cols["ts"], pa.timestamp("us")),
        }
    )


def synthesize_transcripts(out_dir: str, num_conversations: int, mean_turns: int = 12,
                           conversations_per_block: int = 200):
    """Distributed deterministic synthesis -> partitioned Parquet at out_dir.

    Uses ray.data.range over conversation indices so generation itself scales
    out; each task regenerates only its own conversations (pure functions, no
    shared state). Does NOT call ray.init (driver/bench owns the session).
    """
    import ray.data as rd

    ds = rd.range(num_conversations, override_num_blocks=max(1, num_conversations // conversations_per_block))

    def gen(batch: pa.Table) -> pa.Table:
        return conversations_table(batch.column("id").to_pylist(), mean_turns)

    rd.DataContext.get_current().enable_progress_bars = False
    ds.map_batches(gen, batch_format="pyarrow").write_parquet(out_dir)


def read_transcripts_any(path: str, fmt: str = "parquet",
                         columns: list[str] | None = None):
    """Format-agnostic transcript reader -> Dataset with the canonical
    SCHEMA (reference parity: the service ingests JSON/CSV uploads, not
    just columnar files). Every format normalizes to identical column
    names/types, so any downstream pipeline runs unchanged:

    - parquet: pruned columnar read (the production path).
    - jsonl / json: ``read_json`` + a cast stage (ts strings -> timestamp,
      turn_idx -> int32).
    - csv: ``read_csv`` + the same cast; embedded JSON payloads survive
      because write/read both use RFC-4180 quoting.

    Column pruning happens AFTER parse for row-oriented formats (inherent
    to the format — another reason parquet is the at-scale layout).
    """
    import ray.data as rd

    if fmt == "parquet":
        return rd.read_parquet(path, columns=columns)
    if fmt in ("jsonl", "json"):
        ds = rd.read_json(path)
    elif fmt == "csv":
        ds = rd.read_csv(path)
    else:
        raise ValueError(f"unknown transcript format {fmt!r}")

    def to_canonical(t: pa.Table) -> pa.Table:
        ts = t.column("ts")
        if not pa.types.is_timestamp(ts.type):
            # Arrow casts ISO-8601 strings to timestamp natively (strptime
            # can't: its %f is a Python extension Arrow doesn't implement)
            ts = ts.cast(pa.string())
        out = pa.table({**{n: t.column(n) for n in SCHEMA.names},
                        "ts": ts}).cast(SCHEMA)
        return out.select(columns) if columns else out

    return ds.map_batches(to_canonical, batch_format="pyarrow")
