"""scripts/run_pipeline.py main(), run in-process: the one-pass job writes
what the separate library calls compute, and leaves its caller's Ray
session up."""

import importlib.util
import json
from collections import Counter
from pathlib import Path

import pytest

pytestmark = pytest.mark.usefixtures("ray_session")

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_pipeline.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("run_pipeline", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _run(monkeypatch, *argv):
    monkeypatch.setattr("sys.argv", ["run_pipeline.py", *argv])
    _load_script().main()


def _rows(df, cols=None):
    """Multiset of a frame's rows (over ``cols``, default all)."""
    df = df if cols is None else df[cols]
    return Counter(map(tuple, df.astype(str).values.tolist()))


@pytest.fixture(scope="module")
def transcripts(tmp_path_factory):
    """Clean generated conversations in one file, MFT records whose Size
    fails the datatype rule in another, plus one whose FullPath (a path
    mention) fails the fidelity rule."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from case_uco_ontology_map_ray.sources.transcripts import conversations_table

    src = tmp_path_factory.mktemp("transcripts")
    clean = conversations_table(range(2), 6)
    pq.write_table(clean, src / "part-0.parquet")
    payloads = [json.dumps({
        "artifact_type": "MFT Records",
        "records": [{"EntryNumber": i, "FullPath": f"/x/{i}", "Size": "bad"}],
    }) for i in range(4)]
    payloads.append(json.dumps({
        "artifact_type": "MFT Records",
        "records": [{"EntryNumber": 4, "FullPath": {"dir": "/x/4"}, "Size": 1}],
    }))
    n = len(payloads)
    bad = pa.table({
        "conv_id": pa.array([f"bad{i}" for i in range(n)]),
        "turn_idx": pa.array([0] * n, pa.int32()),
        "role": pa.array(["tool"] * n),
        "text": pa.array(payloads),
        "tool": pa.array(["mft_parser"] * n),
        "ts": pa.array([0] * n, pa.timestamp("us")),
    })
    pq.write_table(bad.cast(clean.schema), src / "part-1.parquet")
    return str(src)


@pytest.fixture(scope="module")
def expected(transcripts, ray_session):
    """The job's outputs as separate library calls compute them."""
    from case_uco_ontology_map_ray.pipelines.kg import (
        triples_from_transcripts, validated_triples, violation_summary)
    from case_uco_ontology_map_ray.pipelines.linking import canonical_entities

    entity, link = canonical_entities(triples_from_transcripts(transcripts))
    return {
        "clean": validated_triples(transcripts)
        .filter(expr="violation == ''").to_pandas(),
        "plain": triples_from_transcripts(transcripts).to_pandas(),
        "violations": json.loads(json.dumps(
            violation_summary(validated_triples(transcripts)).to_dict("records"))),
        "entity": entity.to_pandas(),
        "link": link.to_pandas(),
    }


def _check_canonical(out, expected):
    import pandas as pd

    entity = pd.read_parquet(out / "entities")
    link = pd.read_parquet(out / "entity_links")
    assert len(entity) > 0 and len(link) > 0
    assert _rows(entity, list(expected["entity"].columns)) == _rows(expected["entity"])
    assert _rows(link, list(expected["link"].columns)) == _rows(expected["link"])


def test_validate_canonicalize_one_pass(transcripts, expected, tmp_path, monkeypatch):
    import pandas as pd
    import ray

    out = tmp_path / "out"
    _run(monkeypatch, "--input", transcripts, "--output", str(out),
         "--validate", "--canonicalize")

    assert ray.is_initialized()  # the caller's session is left up
    triples = pd.read_parquet(out / "triples")
    assert len(triples) > 0
    assert _rows(triples, list(expected["clean"].columns)) == _rows(expected["clean"])
    violations = json.loads((out / "_metrics.json").read_text())["violations"]
    assert violations and violations == expected["violations"]
    assert {(v["violation"], v["pred"]) for v in violations} == {
        ("datatype[xsd:integer]", "uco-observable:sizeInBytes"),
        ("fidelity", "uco-observable:filePath")}
    _check_canonical(out, expected)


def test_resume_canonicalize_reads_written_triples(transcripts, expected, tmp_path,
                                                   monkeypatch):
    import pandas as pd
    import ray

    out = tmp_path / "out"
    _run(monkeypatch, "--input", transcripts, "--output", str(out),
         "--resume", "--canonicalize")

    assert ray.is_initialized()
    triples = pd.concat([pd.read_parquet(f)
                         for f in sorted((out / "triples").rglob("*.parquet"))])
    cols = list(expected["plain"].columns)
    assert _rows(triples, cols) == _rows(expected["plain"])
    metrics = json.loads((out / "_metrics.json").read_text())
    assert metrics["resume_summary"]["rows"] == len(expected["plain"])
    _check_canonical(out, expected)


def test_resume_validate_is_rejected(tmp_path, monkeypatch, capsys):
    with pytest.raises(SystemExit) as exc:
        _run(monkeypatch, "--input", str(tmp_path), "--output", str(tmp_path / "out"),
             "--resume", "--validate")
    assert exc.value.code != 0
    assert "--validate" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
