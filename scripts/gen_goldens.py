"""One-time golden generation: run the REFERENCE's deterministic path
(uuid_planner_node -> graph_generator_node) with frozen ontology maps
over its own fixtures, flatten the JSON-LD to triples, write goldens.
LLM deps are stubbed; only pure deterministic code runs.
"""
import sys, types, json, os

# this checkout: goldens go to its tests/, its package is the one imported
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDENS = os.path.join(ROOT, "tests", "goldens")

def make_mod(name, **attrs):
    m = types.ModuleType(name)
    for k, v in attrs.items(): setattr(m, k, v)
    sys.modules[name] = m
    return m

def tool(*a, **k):
    if len(a)==1 and callable(a[0]): return a[0]
    return lambda f: f
class HumanMessage:
    def __init__(self, content=None, name=None, **k): self.content=content; self.name=name
class ChatOpenAI:
    def __init__(self, *a, **k): pass
    def invoke(self, *a, **k): raise RuntimeError("LLM disabled")
    def with_structured_output(self, *a, **k): return self
class BaseModel:
    def __init__(self, **kw):
        for k,v in kw.items(): setattr(self,k,v)
def Field(default=None, **k): return default
def add_messages(a,b): return (a or []) + (b or [])

make_mod("langchain_core")
make_mod("langchain_core.tools", tool=tool)
make_mod("langchain_core.messages", HumanMessage=HumanMessage)
make_mod("langchain_openai", ChatOpenAI=ChatOpenAI)
make_mod("pydantic", BaseModel=BaseModel, Field=Field)
pv1 = make_mod("pydantic.v1", BaseModel=BaseModel, Field=Field)
sys.modules["pydantic"].v1 = pv1
make_mod("langgraph")
make_mod("langgraph.graph")
make_mod("langgraph.graph.message", add_messages=add_messages)
make_mod("langgraph.types", Command=object)
make_mod("langchain_core.prompts", ChatPromptTemplate=object)


sys.path.insert(0, "/root/reference")
from agents.uuid_planner import uuid_planner_node
from agents.graph_generator import graph_generator_node, _normalise_value

PREFETCH_MAP = {
  "artifacts": ["Windows Prefetch execution cache records"],
  "classes": ["WindowsPrefetch"],
  "facets": ["WindowsPrefetchFacet", "FileFacet"],
  "properties": {
    "WindowsPrefetch": [],
    "WindowsPrefetchFacet": ["applicationFileName", "timesExecuted", "firstRun",
                             "lastRun", "volume", "accessedFile", "accessedDirectory"],
    "FileFacet": ["fileName", "filePath", "createdTime", "modifiedTime"]
  },
  "relationships": [
    {"type": "Contained_Within", "source": "WindowsPrefetch", "target": "Volume"}
  ],
  "analysis": "frozen fixture",
  "additional_details": {
    "propertyFieldMap": {
      "relationship_Contained_Within_0": {
        "core:source": ["SourceFilename"],
        "core:target": ["VolumeSerialNumber"]
      }
    }
  }
}
MFT_MAP = {
  "artifacts": ["MFT Records"],
  "classes": ["File"],
  "facets": ["FileFacet", "MftRecordFacet"],
  "properties": {
    "File": [],
    "FileFacet": ["fileName", "filePath", "createdTime", "modifiedTime", "accessedTime",
                  "allocationStatus", "sizeInBytes"],
    "MftRecordFacet": ["mftFileID", "entryID", "sequenceNumber", "entrySequence",
                       "mftParentID", "mftFileNameCreatedTime", "mftFileNameModifiedTime",
                       "mftFileNameAccessedTime"]
  },
  "relationships": [],
  "analysis": "frozen fixture",
  "additional_details": {}
}

# reference smoke test injects prefetch aliases (tests/smoke_pipeline.py:58-65)
from agents import uuid_planner as up
up.PROPERTY_ALIAS_MAP.update({
    "sourcefilename": ["applicationFileName", "fileName", "filePath", "accessedFile"],
    "referencedpaths": ["accessedDirectory", "accessedFile"],
    "runcount": ["timesExecuted"],
    "filecreatedtime": ["firstRun"],
    "filemodifiedtime": ["lastRun"],
    "volumeserialnumber": ["volume"],
})

def run_case(name, raw_input, ontology_map):
    state = {
        "rawInputJSON": raw_input,
        "ontologyMap": ontology_map,
        "customFacets": {},
        "uuidPlan": None, "slotTypeMap": {}, "recordFingerprints": [],
        "graphGeneratorAttempts": 0, "graphGeneratorErrors": [],
        "layer2_feedback_history": [],
    }
    out = uuid_planner_node(state)
    state.update(out)
    gout = graph_generator_node(state)
    graph = gout["jsonldGraph"]
    triples = []
    for node in graph["@graph"]:
        subj = node["@id"]
        for pred, value in node.items():
            if pred == "@id": continue
            if pred == "@type":
                triples.append((subj, "rdf:type", str(value), "@id")); continue
            norm = _normalise_value(value)
            vals = norm if isinstance(norm, tuple) else (norm,)
            for v in vals:
                if isinstance(v, bool): dt = "xsd:boolean"; v = "true" if v else "false"
                elif isinstance(v, int): dt = "xsd:integer"; v = str(v)
                elif isinstance(v, float): dt = "xsd:decimal"; v = repr(v)
                elif pred == "uco-core:hasFacet" or (isinstance(v, str) and v.startswith("kb:")): dt = "@id"; v = str(v)
                else: dt = "xsd:string"; v = str(v)
                triples.append((subj, pred, v, dt))
    return {"state_plan": out, "graph": graph, "triples": sorted(triples)}

prefetch_payload = {
    "artifact_type": "Windows Prefetch execution cache records",
    "description": "Windows Prefetch files parsed from C:\\Windows\\Prefetch",
    "source": "prefetch_parser",
    "records": json.load(open("/root/reference/tests/fixtures/windows_prefetch.json")),
}
mft_payload = json.load(open("/root/reference/test.json"))

out = {}
out["prefetch"] = run_case("prefetch", prefetch_payload, PREFETCH_MAP)
out["mft"] = run_case("mft", mft_payload, MFT_MAP)

os.makedirs(GOLDENS, exist_ok=True)
for name, res in out.items():
    with open(f"{GOLDENS}/{name}_graph.json", "w") as f:
        json.dump(res["graph"], f, indent=1, sort_keys=True)
    with open(f"{GOLDENS}/{name}_triples.json", "w") as f:
        json.dump(res["triples"], f, indent=0)
    print(name, "triples:", len(res["triples"]))
print("subjects sample:", out["prefetch"]["triples"][0])

# --- Custom-facet full path golden (deterministic auto-generation) ---------
from copy import deepcopy
from agents.custom_facet import _auto_generate_custom_facets

def run_custom_case(name, payload, base_map, unmapped_fields):
    record = payload.get("record") or {}
    details = [{"field": f, "sampleValue": record.get(f)} for f in unmapped_fields]
    facets, cstate, ttl, updates = _auto_generate_custom_facets(details, payload, base_map)
    omap = deepcopy(base_map)
    fname = updates.get("facet_name")
    if fname:
        omap.setdefault("facets", []).append(fname)
        omap.setdefault("properties", {})[fname] = list(updates.get("properties", []))
    state = {
        "rawInputJSON": payload, "ontologyMap": omap, "customFacets": facets,
        "uuidPlan": None, "slotTypeMap": {}, "recordFingerprints": [],
        "graphGeneratorAttempts": 0, "graphGeneratorErrors": [],
        "layer2_feedback_history": [],
    }
    out = uuid_planner_node(state); state.update(out)
    gout = graph_generator_node(state)
    graph = gout["jsonldGraph"]
    triples = []
    for node in graph["@graph"]:
        subj = node["@id"]
        for pred, value in node.items():
            if pred == "@id": continue
            if pred == "@type":
                triples.append((subj, "rdf:type", str(value), "@id")); continue
            norm = _normalise_value(value)
            vals = norm if isinstance(norm, tuple) else (norm,)
            for v in vals:
                if isinstance(v, bool): dt = "xsd:boolean"; v = "true" if v else "false"
                elif isinstance(v, int): dt = "xsd:integer"; v = str(v)
                elif isinstance(v, float): dt = "xsd:decimal"; v = repr(v)
                elif pred == "uco-core:hasFacet" or (isinstance(v, str) and v.startswith("kb:")): dt = "@id"; v = str(v)
                else: dt = "xsd:string"; v = str(v)
                triples.append((subj, pred, v, dt))
    res = {"graph": graph, "triples": sorted(triples), "customFacets": facets, "ttl": ttl,
           "ontologyMapAfter": omap}
    with open(f"{GOLDENS}/{name}_graph.json", "w") as f:
        json.dump(graph, f, indent=1, sort_keys=True)
    with open(f"{GOLDENS}/{name}_triples.json", "w") as f:
        json.dump(res["triples"], f, indent=0)
    with open(f"{GOLDENS}/{name}_customfacets.json", "w") as f:
        json.dump({"customFacets": facets, "ttl": ttl, "ontologyMapAfter": omap}, f, indent=1, sort_keys=True)
    print(name, "triples:", len(res["triples"]))
    return res

MINIMAL_MAP = {"artifacts": [], "classes": ["ObservableObject"], "facets": [],
               "properties": {"ObservableObject": []}, "relationships": [],
               "analysis": "", "additional_details": {}}

custom_payload = {
    "artifact_type": "MFT Record",
    "description": "MFT record with extended attributes",
    "source": "ntfs_analysis_tool",
    "record": {"EntryNumber": 77, "SecurityId": "S-1-5-21-1004", "ObjectIdFileDroid": "droid-0001",
               "ZoneIdContents": "[ZoneTransfer] ZoneId=3"},
}
run_custom_case("custom_mft", custom_payload, MINIMAL_MAP,
                ["EntryNumber", "SecurityId", "ObjectIdFileDroid", "ZoneIdContents"])

iot_payload = {
    "artifact_type": "IoT Sensor Reading",
    "description": "sensor data",
    "source": "iot_gateway",
    "record": {"temperature": 23.5, "humidity": 41, "active": True, "sensor": "t-100"},
}
run_custom_case("custom_iot", iot_payload, MINIMAL_MAP,
                ["temperature", "humidity", "active", "sensor"])

# --- Relationship + propertyFieldMap golden ---------------------------------
REL_MAP = {
  "artifacts": ["Windows Prefetch execution cache records"],
  "classes": ["WindowsPrefetch"],
  "facets": ["WindowsPrefetchFacet"],
  "properties": {
    "WindowsPrefetch": [],
    "WindowsPrefetchFacet": ["applicationFileName", "timesExecuted"],
  },
  "relationships": [
    {"type": "Connected_To", "source": "WindowsPrefetch", "target": "File"},
    {"type": "Contained_Within", "source": "WindowsPrefetch", "target": "Volume"},
  ],
  "analysis": "frozen fixture with relationships",
  "additional_details": {
    "propertyFieldMap": {
      "WindowsPrefetchFacet": {
        "timesExecuted": ["RunCount"],
        "applicationFileName": ["SourceFilename", "ExecutableName"]
      },
      "NonexistentOwner": {"someProp": ["PrefetchHash"]}
    }
  }
}
rel_payload = {
    "artifact_type": "Windows Prefetch execution cache records",
    "description": "prefetch with relationship slots",
    "source": "prefetch_parser",
    "record": {
        "SourceFilename": "C\\Windows\\Prefetch\\APP.EXE-AAAA1111.pf",
        "RunCount": 7,
        "PrefetchHash": "AAAA1111",
    },
}
out_rel = run_case("relationships", rel_payload, REL_MAP)
with open(f"{GOLDENS}/relationships_graph.json", "w") as f:
    json.dump(out_rel["graph"], f, indent=1, sort_keys=True)
with open(f"{GOLDENS}/relationships_triples.json", "w") as f:
    json.dump(out_rel["triples"], f, indent=0)
print("relationships triples:", len(out_rel["triples"]))

# --- relationship WITH payload (routed via propertyFieldMap owner slug) ----
REL_MAP2 = json.loads(json.dumps(REL_MAP))
REL_MAP2["additional_details"]["propertyFieldMap"]["Relationship Connected_To 0"] = {
    "kindOfRelationship": ["RelKind"]
}
rel_payload2 = json.loads(json.dumps(rel_payload))
rel_payload2["record"]["RelKind"] = "Connected_To"
out_rel2 = run_case("relationships_payload", rel_payload2, REL_MAP2)
with open(f"{GOLDENS}/relationships_payload_graph.json", "w") as f:
    json.dump(out_rel2["graph"], f, indent=1, sort_keys=True)
with open(f"{GOLDENS}/relationships_payload_triples.json", "w") as f:
    json.dump(out_rel2["triples"], f, indent=0)
print("relationships_payload triples:", len(out_rel2["triples"]))
for n in out_rel2["graph"]["@graph"]: print(n)

# --- Auto-mapped browser-history golden (round 3) ---------------------------
# The engine's deterministic researcher/synthesizer (ontology/automap.py)
# builds the ontology map for an UNKNOWN artifact type from the vendored UCO
# index. This case checks that the reference's deterministic path
# (uuid_planner_node + graph_generator_node), given that SAME auto-built map
# and aliases, produces the same graph the engine composes — i.e. the
# auto-mapper's output is a valid frozen map, not just engine-internal.
sys.path.insert(0, ROOT)
from case_uco_ontology_map_ray.ontology.automap import build_ontology_map

browser_payload = {
    "artifact_type": "Browser URL history records",
    "description": "URL history rows parsed from the browser profile",
    "source": "browser_history_parser",
    "records": [
        {
            "URL": "https://intranet.corp/path/0042",
            "PageTitle": "Page 713",
            "VisitCount": 9,
            "FirstVisitTime": "2025-03-01T08:00:00Z",
            "LastVisitTime": "2025-03-01T10:00:00Z",
            "BrowserName": "Chrome",
        },
        {
            "URL": "https://files.example.com/path/0007",
            "PageTitle": "Page 31",
            "VisitCount": 2,
            "FirstVisitTime": "2025-03-02T12:30:00Z",
            "LastVisitTime": "2025-03-02T14:30:00Z",
            "BrowserName": "Firefox",
        },
    ],
}
auto_map, auto_aliases = build_ontology_map(
    "Browser URL history records",
    sorted(browser_payload["records"][0].keys()))
assert auto_map is not None and auto_map["classes"] == ["URLHistory"], auto_map
up.PROPERTY_ALIAS_MAP.update(auto_aliases)
out_browser = run_case("browser", browser_payload, auto_map)
with open(f"{GOLDENS}/browser_graph.json", "w") as f:
    json.dump(out_browser["graph"], f, indent=1, sort_keys=True)
with open(f"{GOLDENS}/browser_triples.json", "w") as f:
    json.dump(out_browser["triples"], f, indent=0)
print("browser triples:", len(out_browser["triples"]))

# --- Round-4 breadth goldens: registry run keys, EVTX, browser cookies ------
# Same instrument as prefetch/MFT: run the REFERENCE's deterministic path
# with the engine's frozen maps + aliases and pin the flattened triples.
from case_uco_ontology_map_ray.config import EXTENDED_ALIAS_MAP, ONTOLOGY_MAPS

up.PROPERTY_ALIAS_MAP.update(EXTENDED_ALIAS_MAP)

registry_payload = {
    "artifact_type": "Windows Registry run key entries",
    "description": "Run/RunOnce key values parsed from the registry hives",
    "source": "registry_parser",
    "records": [
        {"KeyPath": "HKLM\\Software\\Microsoft\\Windows\\CurrentVersion\\Run",
         "ValueName": "Updater12", "ValueData": "C:\\ProgramData\\evil.exe",
         "LastWriteTime": "2025-01-02T03:04:05Z", "SubkeyCount": 4},
        {"KeyPath": "HKCU\\Software\\Microsoft\\Windows\\CurrentVersion\\Run",
         "ValueName": "Sync", "ValueData": "C:\\Users\\u\\sync.exe",
         "LastWriteTime": "2025-02-03T04:05:06Z", "SubkeyCount": 0},
    ],
}
evtx_payload = {
    "artifact_type": "Windows Event Log records",
    "description": "EVTX records parsed from the Security channel",
    "source": "evtx_parser",
    "records": [
        {"EventID": "4624", "RecordNumber": "112233", "Channel": "Security",
         "Provider": "Microsoft-Windows-Security-Auditing",
         "TimeCreated": "2025-01-02T03:04:05Z",
         "Message": "An account was successfully logged on",
         "Level": "Information"},
        {"EventID": "4625", "RecordNumber": "112234", "Channel": "Security",
         "Provider": "Microsoft-Windows-Security-Auditing",
         "TimeCreated": "2025-01-02T03:05:06Z",
         "Message": "An account failed to log on", "Level": "Warning"},
    ],
}
cookie_payload = {
    "artifact_type": "Browser cookie records",
    "description": "Cookie rows parsed from the browser profile",
    "source": "cookie_parser",
    "records": [
        {"CookieName": "session_id", "CookiePath": "/", "HostKey": ".example.com",
         "CreationTime": "2025-01-02T03:04:05Z",
         "LastAccessTime": "2025-01-03T03:04:05Z",
         "ExpirationTime": "2025-02-02T03:04:05Z", "IsSecure": True},
        {"CookieName": "tracker", "CookiePath": "/app", "HostKey": ".vendor.net",
         "CreationTime": "2025-03-02T03:04:05Z",
         "LastAccessTime": "2025-03-03T03:04:05Z",
         "ExpirationTime": "2025-04-02T03:04:05Z", "IsSecure": False},
    ],
}
for name, payload in [("registry", registry_payload), ("evtx", evtx_payload),
                      ("cookie", cookie_payload)]:
    res = run_case(name, payload, ONTOLOGY_MAPS[payload["artifact_type"]])
    with open(f"{GOLDENS}/{name}_graph.json", "w") as f:
        json.dump(res["graph"], f, indent=1, sort_keys=True)
    with open(f"{GOLDENS}/{name}_triples.json", "w") as f:
        json.dump(res["triples"], f, indent=0)
    print(name, "triples:", len(res["triples"]))

usn_payload = {
    "artifact_type": "NTFS USN journal records",
    "description": "USN change-journal entries from the NTFS volume",
    "source": "usn_parser",
    "record": {"Usn": 120034, "FileName": "evil.exe", "Reason": "FILE_CREATE",
               "Timestamp": "2025-01-02T03:04:05Z"},
}
run_custom_case("custom_usn", usn_payload, MINIMAL_MAP,
                ["Usn", "FileName", "Reason", "Timestamp"])
