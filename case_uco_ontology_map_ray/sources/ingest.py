"""Input normalization: the reference's multi-format intake re-expressed.

Reference semantics:
- ``_normalize_input`` (services.py:23-64): dict/list -> JSON; CSV text ->
  DictReader rows; anything else -> free text. Returns
  {as_text, raw_json, format in {json, csv, text}}.
- CSV + metadata wrapper (services.py:125-151): first CSV row wrapped into
  the {artifact_type, description, source, record} payload shape.

At engine scale the same logic runs per tool-turn inside map_batches.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Any


def normalize_input(data: Any) -> dict:
    """-> {as_text, raw_json, format}; format in {json, csv, text}."""
    if isinstance(data, (dict, list)):
        return {"as_text": json.dumps(data, ensure_ascii=False),
                "raw_json": data, "format": "json"}
    text = str(data or "")
    stripped = text.strip()
    if stripped.startswith(("{", "[")):
        try:
            obj = json.loads(stripped)
            return {"as_text": stripped, "raw_json": obj, "format": "json"}
        except json.JSONDecodeError:
            pass
    if _looks_like_csv(stripped):
        rows = list(csv.DictReader(io.StringIO(stripped)))
        if rows:
            return {"as_text": stripped, "raw_json": rows, "format": "csv"}
    return {"as_text": text, "raw_json": None, "format": "text"}


def _looks_like_csv(text: str) -> bool:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2:
        return False
    header = lines[0]
    return ("," in header) and all(
        ln.count(",") == header.count(",") for ln in lines[1:3]
    )


def wrap_csv_payload(rows: list[dict], artifact_type: str | None,
                     description: str | None, source: str | None) -> dict:
    """CSV rows + metadata -> the standard artifact payload shape
    (multi-record generalization of services.py:125-151)."""
    payload: dict[str, Any] = {}
    if artifact_type:
        payload["artifact_type"] = artifact_type
    if description:
        payload["description"] = description
    if source:
        payload["source"] = source
    if len(rows) == 1:
        payload["record"] = rows[0]
    else:
        payload["records"] = rows
    return payload
