"""Seeded transcript generator owned by the benchmark.

Writes one Parquet file in the transcript schema (conv_id, turn_idx, role,
text, tool, ts). Tool turns carry artifact payloads of the nine kinds the
engine maps, with the field names and value types of the package's own
generator, but every value comes from a numpy generator seeded by
(workload, seed, size), so a change to the package cannot shift the inputs.

Runs in one process and never imports the package. Inputs are cached per
(GEN_VERSION, workload, seed, size) under the checkout's ``.bench_cache``.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

GEN_VERSION = 2

KINDS = ("prefetch", "mft", "custom_mft", "custom_iot", "browser_history",
         "registry_run_key", "evtx_event", "browser_cookie", "usn_journal")

# Per-workload input settings. The number of tool turns is fixed and the
# nine kinds (or the workload's subset) are dealt evenly, so every seed gives
# an input of the same size and make-up; the seed decides conversation
# lengths, turn order and values. ``records`` is records per payload (1 means
# a single ``record`` payload), ``dup`` the occurrences of each distinct
# record, ``hot_share`` the share of tool turns in the hot conversation,
# ``families``/``family_size`` the planted near-duplicate path families.
SETTINGS = {
    "flagship": dict(conversations=600, tool_turns=2400, records=1, dup=1,
                     hot_share=0.02, kinds=KINDS, families=0, family_size=0),
    "dedup": dict(conversations=3000, tool_turns=17280, records=4, dup=12,
                  hot_share=0.30, kinds=KINDS, families=0, family_size=0),
    "canonicalize": dict(conversations=2000, tool_turns=9000, records=1, dup=1,
                         hot_share=0.02, kinds=("prefetch", "mft"),
                         families=120, family_size=5),
}

SHARED = {
    "prefetch": ("Windows Prefetch execution cache records",
                 "Windows Prefetch files parsed from C:\\Windows\\Prefetch",
                 "prefetch_parser", "prefetch_parser"),
    "mft": ("MFT Records",
            "Master File Table records containing filesystem metadata",
            "NTFS filesystem analysis", "ntfs_analysis_tool"),
    "custom_mft": ("MFT Record", "MFT record with extended attributes",
                   "ntfs_analysis_tool", "ntfs_analysis_tool"),
    "custom_iot": ("IoT Sensor Reading", "sensor data", "iot_gateway",
                   "iot_gateway"),
    "browser_history": ("Browser URL history records",
                        "URL history rows parsed from the browser profile",
                        "browser_history_parser", "browser_history_parser"),
    "registry_run_key": ("Windows Registry run key entries",
                         "Run/RunOnce key values parsed from the registry hives",
                         "registry_parser", "registry_parser"),
    "evtx_event": ("Windows Event Log records",
                   "EVTX records parsed from the Security channel",
                   "evtx_parser", "evtx_parser"),
    "browser_cookie": ("Browser cookie records",
                       "Cookie rows parsed from the browser profile",
                       "cookie_parser", "cookie_parser"),
    "usn_journal": ("NTFS USN journal records",
                    "USN change-journal entries from the NTFS volume",
                    "usn_parser", "usn_parser"),
}

_EXE = ["MALICIOUS.EXE", "NOTEPAD.EXE", "CALC.EXE", "POWERSHELL.EXE",
        "CHROME.EXE", "SVCHOST.EXE", "EXPLORER.EXE", "WINWORD.EXE"]
_WORDS = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf",
          "hotel", "india", "juliet", "kilo", "lima", "mike", "november",
          "oscar", "papa", "quebec", "romeo", "sierra", "tango", "uniform",
          "victor", "whiskey", "xray", "yankee", "zulu", "reports", "cache",
          "archive", "payroll", "staging", "backup", "invoices", "drivers"]
_USER = ["Please analyze the prefetch artifacts from the triage image.",
         "What executables ran on this host recently?",
         "Pull the MFT entries for the suspicious directory."]
_ASSISTANT = ["Running the parser tool against the evidence now.",
              "I extracted the records below; mapping them to CASE/UCO next.",
              "The artifact records are consistent with program execution."]
_EPOCH_US = 1_700_000_000_000_000


def _iso(t: int) -> str:
    y = 2015 + (t // 31_536_000) % 10
    return (f"{y}-{(t // 2_592_000) % 12 + 1:02d}-{(t // 86_400) % 28 + 1:02d}"
            f"T{(t // 3600) % 24:02d}:{(t // 60) % 60:02d}:{t % 60:02d}Z")


class _Paths:
    """Deep Windows paths for the path-bearing kinds; in the canonicalize
    corpus a share of them come from planted near-duplicate families."""

    def __init__(self, rng: np.random.Generator, families: int, size: int):
        self.rng = rng
        self.families = []
        for f in range(families):
            base = self._random_dir() + f"\\family{f:04d}_build"
            # members differ from each other in one digit of a ~200-char path
            # (char-4 shingle Jaccard ~0.96), so MinHash-LSH links them with
            # near certainty; each also appears in another case/separator form
            self.families.append([f"{base}{m}.log" for m in range(size)])

    def _random_dir(self) -> str:
        n = int(self.rng.integers(16, 21))
        parts = [_WORDS[int(i)] + str(int(d)) for i, d in
                 zip(self.rng.integers(0, len(_WORDS), n),
                     self.rng.integers(0, 1000, n))]
        return "C:\\" + "\\".join(parts)

    def pick(self, uid: int) -> str:
        if self.families and self.rng.random() < 0.5:
            fam = self.families[int(self.rng.integers(len(self.families)))]
            p = fam[int(self.rng.integers(len(fam)))]
            if self.rng.random() < 0.3:  # same normalized path, other spelling
                p = p.replace("\\", "/").upper()
            return p
        return self._random_dir() + f"\\file{uid}.dat"


def _record(kind: str, rng: np.random.Generator, uid: int, paths: _Paths) -> dict:
    h = int(rng.integers(0, 2**40))
    exe = _EXE[h % len(_EXE)]
    t0 = 1_400_000_000 + h % 300_000_000
    if kind == "prefetch":
        src = (paths.pick(uid) if paths.families
               else f"C\\Windows\\Prefetch\\{exe}-{uid:08X}.pf")
        return {"SourceFilename": src, "ExecutableName": exe,
                "PrefetchHash": f"{h % 0xFFFFFFFF:08X}",
                "RunCount": 1 + h % 64, "LastRunTime": _iso(t0 + 3600),
                "FileCreatedTime": _iso(t0), "FileModifiedTime": _iso(t0 + 3600),
                "VolumeSerialNumber": f"{h % 0xFFFF:04X}-{(h >> 16) % 0xFFFF:04X}",
                "ReferencedPaths": [paths.pick(uid * 2 + 1)
                                    if paths.families else
                                    f"C\\Windows\\System32\\{exe.lower()}",
                                    "C\\Windows\\System32\\kernel32.dll"]}
    if kind == "mft":
        full = (paths.pick(uid) if paths.families
                else f"\\Users\\user{h % 50}\\Documents\\doc{uid}.docx")
        return {"EntryNumber": uid, "SequenceNumber": 1 + h % 16,
                "ParentEntryNumber": h % 5000, "FullPath": full,
                "InUse": (h % 7) != 0, "SI_Created": _iso(t0),
                "SI_Modified": _iso(t0 + 3600), "SI_Accessed": _iso(t0 + 7200),
                "FN_Created": _iso(t0), "FN_Modified": _iso(t0 + 3600)}
    if kind == "browser_history":
        host = ["intranet.corp", "files.example.com", "update.vendor.net"][h % 3]
        return {"URL": f"https://{host}/path/{uid}", "PageTitle": f"Page {h % 997}",
                "VisitCount": 1 + h % 40, "FirstVisitTime": _iso(t0),
                "LastVisitTime": _iso(t0 + 7200),
                "BrowserName": ["Chrome", "Edge", "Firefox"][h % 3]}
    if kind == "registry_run_key":
        hive = ["HKLM\\Software\\Microsoft\\Windows\\CurrentVersion\\Run",
                "HKCU\\Software\\Microsoft\\Windows\\CurrentVersion\\Run"][h % 2]
        return {"KeyPath": hive, "ValueName": f"Updater{uid}",
                "ValueData": f"C:\\ProgramData\\{exe.lower()}",
                "LastWriteTime": _iso(t0 + 1800), "SubkeyCount": h % 32}
    if kind == "evtx_event":
        return {"EventID": str(4624 + h % 5), "RecordNumber": str(100_000 + uid),
                "Channel": ["Security", "System", "Application"][h % 3],
                "Provider": "Microsoft-Windows-Security-Auditing",
                "TimeCreated": _iso(t0 + 60),
                "Message": f"Logon event for {exe} session {h % 1000}",
                "Level": ["Information", "Warning", "Error"][h % 3]}
    if kind == "browser_cookie":
        return {"CookieName": f"session_{uid}", "CookiePath": "/",
                "HostKey": [".example.com", ".intranet.corp"][h % 2],
                "CreationTime": _iso(t0), "LastAccessTime": _iso(t0 + 3600),
                "ExpirationTime": _iso(t0 + 86_400), "IsSecure": (h % 2) == 0}
    if kind == "usn_journal":
        return {"Usn": 100_000 + uid, "FileName": exe.lower(),
                "Reason": ["FILE_CREATE", "DATA_EXTEND", "FILE_DELETE"][h % 3],
                "Timestamp": _iso(t0 + 120)}
    if kind == "custom_mft":
        return {"EntryNumber": uid, "SecurityId": f"S-1-5-21-{h % 10_000}",
                "ObjectIdFileDroid": f"droid-{h % 10_000:04d}",
                "ZoneIdContents": f"[ZoneTransfer] ZoneId={h % 4}"}
    return {"temperature": round(15.0 + (h % 2000) / 100.0, 2),
            "humidity": 20 + h % 60, "active": (h % 3) != 0,
            "sensor": f"t-{uid}"}


def _lengths(rng: np.random.Generator, n: int, tool_turns: int, hot_share: float) -> list[int]:
    """Turns per conversation: conversation 0 holds ``hot_share`` of the tool
    turns, the rest are split over the others with a mild random skew. Every
    third turn is a tool turn and every conversation ends on one."""
    hot = max(1, round(hot_share * tool_turns))
    rest = tool_turns - hot - (n - 1)
    bulk = 1 + rng.multinomial(rest, rng.dirichlet(np.ones(n - 1)))
    return [3 * hot] + [3 * int(b) for b in bulk]


def _dealt(rng: np.random.Generator, values, n: int) -> list:
    """``n`` items cycling through ``values`` evenly, in random order."""
    out = [values[i % len(values)] for i in range(n)]
    return [out[i] for i in rng.permutation(n)]


def generate(workload: str, seed: int, out_file: Path,
             conversations: int | None = None) -> dict:
    """Write the workload's transcript Parquet; return its metadata.
    ``conversations`` scales the workload down (the checks' tests use small
    inputs)."""
    s = dict(SETTINGS[workload])
    if conversations:
        s["tool_turns"] = s["tool_turns"] * conversations // s["conversations"]
        s["conversations"] = conversations
    rng = np.random.default_rng([GEN_VERSION, list(SETTINGS).index(workload), seed])
    paths = _Paths(rng, s["families"], s["family_size"])
    lengths = _lengths(rng, s["conversations"], s["tool_turns"], s["hot_share"])
    kinds = iter(_dealt(rng, s["kinds"], s["tool_turns"]))
    draws: dict[str, object] = {}
    if s["dup"] > 1:
        # each distinct record of a kind recurs ``dup`` times (the remainder
        # of a kind's occurrences is spread over its first records)
        n_kinds, uid = len(s["kinds"]), 0
        for i, k in enumerate(s["kinds"]):
            occ = (s["tool_turns"] // n_kinds + (i < s["tool_turns"] % n_kinds)) * s["records"]
            pool = [_record(k, rng, uid + j, paths)
                    for j in range(max(1, occ // s["dup"]))]
            uid += len(pool)
            draws[k] = iter(_dealt(rng, pool, occ))
    cols: dict[str, list] = {k: [] for k in ("conv_id", "turn_idx", "role",
                                             "text", "tool", "ts")}
    uid = 0
    order = rng.permutation(len(lengths))  # conversation ids do not follow size
    for ci, n in enumerate(lengths):
        conv_id = f"conv-{int(order[ci]):06d}"
        base_ts = _EPOCH_US + int(order[ci]) * 60_000_000
        for t in range(n):
            phase = t % 3
            tool = ""
            if phase == 0:
                role, text = "user", _USER[int(rng.integers(len(_USER)))]
            elif phase == 1:
                role, text = "assistant", _ASSISTANT[int(rng.integers(len(_ASSISTANT)))]
            else:
                kind = next(kinds)
                atype, desc, source, tool = SHARED[kind]
                payload = {"artifact_type": atype, "description": desc,
                           "source": source}
                if s["dup"] > 1:
                    payload["records"] = [next(draws[kind]) for _ in range(s["records"])]
                else:
                    payload["record"] = _record(kind, rng, uid, paths)
                    uid += 1
                role, text = "tool", json.dumps(payload, sort_keys=True)
            cols["conv_id"].append(conv_id)
            cols["turn_idx"].append(t)
            cols["role"].append(role)
            cols["text"].append(text)
            cols["tool"].append(tool)
            cols["ts"].append(base_ts + t * 30_000_000)
    table = pa.table({
        "conv_id": pa.array(cols["conv_id"], pa.string()),
        "turn_idx": pa.array(cols["turn_idx"], pa.int32()),
        "role": pa.array(cols["role"], pa.string()),
        "text": pa.array(cols["text"], pa.string()),
        "tool": pa.array(cols["tool"], pa.string()),
        "ts": pa.array(cols["ts"], pa.timestamp("us")),
    })
    out_file.parent.mkdir(parents=True, exist_ok=True)
    pq.write_table(table, out_file, row_group_size=4096)
    return {"workload": workload, "seed": seed, "turns": table.num_rows,
            "tool_turns": s["tool_turns"], "conversations": len(lengths),
            "hot_turns": lengths[0], "families": paths.families}


def ensure_inputs(root: Path, workload: str, seed: int) -> tuple[Path, dict, float]:
    """Cached input directory, its metadata, and the seconds spent generating
    (0 on a cache hit). The files are read once to warm the page cache."""
    s = SETTINGS[workload]
    key = f"v{GEN_VERSION}-{workload}-s{seed}-n{s['tool_turns']}"
    d = root / ".bench_cache" / key
    meta_file = d / "meta.json"
    gen_s = 0.0
    if not meta_file.is_file():
        t0 = time.perf_counter()
        tmp = d.with_name(d.name + f".tmp{os.getpid()}")
        shutil.rmtree(tmp, ignore_errors=True)
        meta = generate(workload, seed, tmp / "input" / "part-0.parquet")
        (tmp / "meta.json").write_text(json.dumps(meta))
        shutil.rmtree(d, ignore_errors=True)
        tmp.rename(d)
        gen_s = time.perf_counter() - t0
    for f in (d / "input").iterdir():
        f.read_bytes()
    return d / "input", json.loads(meta_file.read_text()), gen_s
