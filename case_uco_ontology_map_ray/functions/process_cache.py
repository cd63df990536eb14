"""Per-worker-process cache of compiled map-stage state.

Map stages run as stateless Ray tasks. Their compiled state (ontology
mappers, rule engine, MinHash family) is deterministic and takes under a
millisecond to build, so each worker process builds it on first use and
reuses it for every later task it runs. No actor holds a CPU between jobs.
"""

from __future__ import annotations

_STAGES: dict[tuple, object] = {}


def process_stage(cls, *args):
    """This process's ``cls(*args)``, built on first use."""
    key = (cls, *args)
    stage = _STAGES.get(key)
    if stage is None:
        stage = _STAGES[key] = cls(*args)
    return stage
