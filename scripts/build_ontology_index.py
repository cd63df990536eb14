"""Offline builder: parse the public UCO/CASE TTLs into the distilled
ontology index JSON vendored at case_uco_ontology_map_ray/ontology/uco_index.json.

Usage: python scripts/build_ontology_index.py [ttl_dir]
(default ttl_dir: /root/reference/ttl — the vendored copies of the public
 UCO 1.x ontology releases; any checkout of the published TTLs works)
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from case_uco_ontology_map_ray.ontology.ttl_parser import extract_dir


def main():
    ttl_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/reference/ttl"
    data = extract_dir(ttl_dir)
    out = "case_uco_ontology_map_ray/ontology/uco_index.json"
    with open(out, "w") as f:
        json.dump(data, f, sort_keys=True, separators=(",", ":"))
    n_shapes = sum(len(e["shapes"]) for e in data["classes"].values())
    print(f"classes={len(data['classes'])} props={len(data['prop_kinds'])} "
          f"shapes={n_shapes} -> {out}")


if __name__ == "__main__":
    main()
