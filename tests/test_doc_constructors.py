from kazu_ray.sources.interleave import docs_from_sections, docs_from_texts


def test_docs_from_texts(ray_session, compiled_dicts):
    from kazu_ray.pipelines.config import PipelineConfig, build

    ds = docs_from_texts(["EGFR is a gene.", "melanoma was found."])
    rows = build(ds, compiled_dicts, PipelineConfig(concurrency=1)).take_all()
    assert len(rows) == 2
    assert any(e["match"] == "EGFR" for e in rows[0]["entities"])
    assert any(e["match"] == "melanoma" for e in rows[1]["entities"])


def test_docs_from_sections(ray_session):
    ds = docs_from_sections([{"title": "A study.", "abstract": "Of EGFR."}])
    row = ds.take_all()[0]
    assert [s["kind"] for s in row["spans"]] == ["title", "abstract"]
    assert row["spans"][1]["offset"] == len("A study.")
