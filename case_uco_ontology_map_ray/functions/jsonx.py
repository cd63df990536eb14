"""Fenced-JSON extraction + repair (reference utils.py:57-91) and the
comment-stripping JSON cleaner (custom_facet.py:39-59) — needed when
ingesting LLM-produced ontology-map configs."""

from __future__ import annotations

import json
import re

try:  # optional fast parser; parse-only (dumps stays stdlib: the record
    # representative min and the uuid5 fingerprint depend on stdlib's
    # exact serialization bytes)
    import orjson as _orjson
except ImportError:  # pragma: no cover - orjson is present in the image
    _orjson = None


# orjson parses integers exactly only within the i64/u64 range and silently
# converts anything wider to float64 (type/precision divergence vs stdlib's
# exact bigint). Such a misparse always surfaces as a float of magnitude
# >= the i64 boundary, so after an orjson parse we walk the (small) value
# tree for one; any hit triggers a stdlib reparse. The walk costs ~15% of
# the parse saving (measured; a \d{19} regex pre-screen costs 100%+ on
# digit-dense payloads), and legit huge floats reparse identically.
_I64_BOUNDARY = 9.223372036854776e18


def _has_boundary_float(o) -> bool:
    # an explicit stack, not recursion: orjson accepts nesting deeper than
    # Python's recursion limit leaves room for
    stack = [o]
    while stack:
        o = stack.pop()
        to = type(o)
        if to is dict:
            stack.extend(o.values())
        elif to is list:
            stack.extend(o)
        elif to is float and (o >= _I64_BOUNDARY or o <= -_I64_BOUNDARY):
            return True
    return False


def loads_fast(text):
    """json.loads twin, ~2x faster via orjson when present.

    Value-exact stdlib parity: parses that might have widened a >64-bit
    integer to float are re-done with stdlib (see _has_boundary_float), and
    orjson strict-mode rejections (NaN/Infinity literals) retry stdlib, so
    anything stdlib parses still parses to the same value; raises
    ValueError/TypeError exactly like stdlib otherwise."""
    if _orjson is None:
        return json.loads(text)
    try:
        out = _orjson.loads(text)
    except ValueError:
        return json.loads(text)
    if _has_boundary_float(out):
        return json.loads(text)
    return out


_FENCE_RE = re.compile(r"```(?:json)?\s*(.*?)```", re.DOTALL)
_LINE_COMMENT_RE = re.compile(r"//[^\n\"]*$", re.MULTILINE)
_UUID_RE = re.compile(
    r"[0-9a-fA-F]{8}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}-[0-9a-fA-F]{12}"
)


def extract_fenced_json(text: str) -> dict | list:
    """Last ```json fence wins; truncate-to-last-brace repair on failure."""
    matches = _FENCE_RE.findall(text)
    candidate = matches[-1].strip() if matches else text.strip()
    try:
        return json.loads(candidate)
    except json.JSONDecodeError:
        end = candidate.rfind("}")
        if end != -1:
            return json.loads(candidate[: end + 1])
        raise


def clean_json_payload(text: str) -> dict:
    """Trim to outermost braces, drop // line comments, parse."""
    m = _FENCE_RE.search(text)
    candidate = (m.group(1) if m else text).strip()
    start, end = candidate.find("{"), candidate.rfind("}")
    if start == -1 or end == -1:
        raise ValueError("No JSON object detected")
    candidate = candidate[start: end + 1]
    cleaned = "\n".join(_LINE_COMMENT_RE.sub("", ln) for ln in candidate.splitlines())
    return json.loads(cleaned)


def extract_uuids(text: str) -> list[str]:
    """UUIDs mentioned in validator feedback (reference validator.py:125-137)
    -> the partial-invalidation list."""
    return _UUID_RE.findall(text)
