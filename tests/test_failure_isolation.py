"""Per-row failure isolation: one bad document must never kill a batch
(mirror of the reference's document_iterating_step semantics,
step.py:60-151)."""

import pyarrow as pa

from kazu_ray.pipelines.kg import AnnotateEmitTriples
from kazu_ray.schemas import DOCS_SCHEMA


def _doc(doc_id, text):
    return {
        "doc_id": doc_id,
        "spans": [{"kind": "text", "text": text, "media_ref": "", "offset": 0}],
    }


def test_one_poison_doc_is_skipped(compiled_dicts, monkeypatch):
    actor = AnnotateEmitTriples(
        compiled_dicts.curations_path,
        compiled_dicts.synonyms_path,
        compiled_dicts.metadata_path,
    )
    real = actor.post.process_doc

    def poisoned(spans, ents, **kw):
        # the fused actor passes bare span texts
        texts = [sp["text"] if isinstance(sp, dict) else sp for sp in spans]
        if any("POISON" in t for t in texts):
            raise RuntimeError("boom")
        return real(spans, ents, **kw)

    monkeypatch.setattr(actor.post, "process_doc", poisoned)
    batch = pa.Table.from_pylist(
        [_doc("doc-poison", "POISON melanoma"), _doc("doc-good", "melanoma was resected")],
        schema=DOCS_SCHEMA,
    )
    out = actor(batch)
    assert actor.failed_docs == 1
    # actor output is partial edge rows; mentions edges carry doc_id as subj
    mention_subjects = {
        s for s, p in zip(out.column("subj").to_pylist(), out.column("pred").to_pylist())
        if p == "mentions"
    }
    assert mention_subjects == {"doc-good"}
    assert any(o == "MONDO_0005105" for o in out.column("obj").to_pylist())


def test_dead_letter_side_output(compiled_dicts, monkeypatch):
    """emit_dead_letter: skipped + failed docs come back as side-output
    rows of the SAME batch call (no second scan), and edge rows carry
    null dl columns."""
    from kazu_ray.stages.dict_ner import MAX_DOC_CHARS

    actor = AnnotateEmitTriples(
        compiled_dicts.curations_path,
        compiled_dicts.synonyms_path,
        compiled_dicts.metadata_path,
        emit_dead_letter=True,
    )
    real = actor.post.process_doc

    def poisoned(spans, ents, **kw):
        texts = [sp["text"] if isinstance(sp, dict) else sp for sp in spans]
        if any("POISON" in t for t in texts):
            raise RuntimeError("boom")
        return real(spans, ents, **kw)

    monkeypatch.setattr(actor.post, "process_doc", poisoned)
    batch = pa.Table.from_pylist(
        [
            _doc("doc-long", "x" * (MAX_DOC_CHARS + 1)),
            _doc("doc-poison", "POISON melanoma"),
            _doc("doc-good", "melanoma was resected"),
        ],
        schema=DOCS_SCHEMA,
    )
    out = actor(batch)
    dl = {
        d: e
        for d, e in zip(out.column("dl_doc_id").to_pylist(), out.column("dl_error").to_pylist())
        if e is not None
    }
    assert set(dl) == {"doc-long", "doc-poison"}
    assert "too long" in dl["doc-long"] and "failed" in dl["doc-poison"]
    # edge rows have null dl columns; dl rows have null pred
    edge_rows = [p for p in out.column("pred").to_pylist() if p is not None]
    assert len(edge_rows) == len(out) - 2
    mention_subjects = {
        s for s, p in zip(out.column("subj").to_pylist(), out.column("pred").to_pylist())
        if p == "mentions"
    }
    assert mention_subjects == {"doc-good"}


def test_edges_pipeline_dead_letter_dataset(ray_session, compiled_dicts):
    """edges_pipeline(with_dead_letter=True): dead-letter Dataset carries
    the bad doc, edges are identical to the plain path on the good docs."""
    import ray.data as rd

    from kazu_ray.pipelines.kg import edges_pipeline
    from kazu_ray.stages.dict_ner import MAX_DOC_CHARS

    rows = [
        _doc("doc-long", "y" * (MAX_DOC_CHARS + 1)),
        _doc("doc-a", "melanoma was resected"),
        _doc("doc-b", "patients with asthma took aspirin"),
    ]
    docs = rd.from_arrow(pa.Table.from_pylist(rows, schema=DOCS_SCHEMA))
    edges, dl = edges_pipeline(
        docs, compiled_dicts, concurrency=1, with_dead_letter=True
    )
    dl_rows = dl.take_all()
    assert [r["doc_id"] for r in dl_rows] == ["doc-long"]
    got = sorted(
        (r["subj"], r["pred"], r["obj"], r["n_docs"]) for r in edges.take_all()
    )
    good = rd.from_arrow(pa.Table.from_pylist(rows[1:], schema=DOCS_SCHEMA))
    want = sorted(
        (r["subj"], r["pred"], r["obj"], r["n_docs"])
        for r in edges_pipeline(good, compiled_dicts, concurrency=1).take_all()
    )
    assert got == want and got
