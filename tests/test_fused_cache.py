"""The fused flagship stage's per-worker state: each process holds one
cached ``AnnotateEmitTriples``, keyed by the identity of its side tables,
and warm workers give the same edges as cold ones."""

import os
import shutil
from types import SimpleNamespace

import pyarrow as pa
import pytest

import kazu_ray.pipelines.kg as kg
from kazu_ray.schemas import DOCS_SCHEMA

SF = "/root/testdata/sf0.001"


def _doc(doc_id, text):
    return {
        "doc_id": doc_id,
        "spans": [{"kind": "text", "text": text, "media_ref": "", "offset": 0}],
    }


BATCH = pa.Table.from_pylist(
    [_doc("doc-a", "melanoma was resected"), _doc("doc-b", "patients with asthma took aspirin")],
    schema=DOCS_SCHEMA,
)


@pytest.fixture
def cache(monkeypatch):
    """An empty slot for this process, restored after the test."""
    monkeypatch.setattr(kg, "_fused_cache", {})
    return kg._fused_cache


def _call(dicts, dead_letter=False):
    return kg.cached_AnnotateEmitTriples(
        BATCH, dicts.curations_path, dicts.synonyms_path, dicts.metadata_path, dead_letter
    )


def _held(cache):
    (fused,) = cache.values()
    return fused


def _copy_dicts(dicts, out_dir):
    os.makedirs(out_dir)
    return SimpleNamespace(**{
        name: shutil.copy2(getattr(dicts, name), out_dir)
        for name in ("curations_path", "synonyms_path", "metadata_path")
    })


def test_same_dicts_reuse_one_instance(compiled_dicts, cache):
    first = _call(compiled_dicts)
    held = _held(cache)
    second = _call(compiled_dicts)
    assert _held(cache) is held
    assert first.num_rows > 0 and first.equals(second)
    # the dead-letter flag is part of the key: the other form is rebuilt
    assert "dl_error" in _call(compiled_dicts, dead_letter=True).schema.names
    assert _held(cache) is not held and _held(cache).emit_dead_letter


def test_touched_side_table_rebuilds(compiled_dicts, cache, tmp_path):
    dicts = _copy_dicts(compiled_dicts, tmp_path / "dicts")
    _call(dicts)
    held = _held(cache)
    st = os.stat(dicts.synonyms_path)
    os.utime(dicts.synonyms_path, ns=(st.st_atime_ns, st.st_mtime_ns + 1_000_000))
    _call(dicts)
    assert _held(cache) is not held


def test_second_dictionary_set_replaces_first(compiled_dicts, cache, tmp_path):
    a = _copy_dicts(compiled_dicts, tmp_path / "a")
    b = _copy_dicts(compiled_dicts, tmp_path / "b")
    first = _call(a)
    held_a = _held(cache)
    assert first.equals(_call(b))
    held_b = _held(cache)
    assert held_b is not held_a
    ((key, _),) = cache.items()
    assert key[0][0] == b.curations_path
    _call(a)
    assert len(cache) == 1 and _held(cache) is not held_b


def test_warm_workers_same_edges_and_dead_letter(ray_session, compiled_dicts):
    """The second execution runs on workers the first one warmed: same
    edge rows, and its over-length doc is still dead-lettered."""
    import ray
    import ray.data as rd

    from kazu_ray.sources.interleave import interleaved_docs
    from kazu_ray.stages.dict_ner import MAX_DOC_CHARS

    docs = pa.concat_tables(ray.get(interleaved_docs(SF).to_arrow_refs())).cast(DOCS_SCHEMA)
    poison = pa.Table.from_pylist([_doc("doc-long", "z" * (MAX_DOC_CHARS + 1))], schema=DOCS_SCHEMA)

    def run(table):
        edges, dl = kg.edges_pipeline(
            rd.from_arrow([table.slice(i, 200) for i in range(0, len(table), 200)]),
            compiled_dicts, concurrency=2, with_dead_letter=True,
        )
        e = edges.to_pandas()
        rows = sorted(zip(e.subj, e.pred, e.obj, e.n_docs, e.confidence))
        return rows, [r["doc_id"] for r in dl.take_all()]

    cold_rows, cold_dl = run(docs)
    warm_rows, warm_dl = run(pa.concat_tables([docs, poison]))
    assert cold_rows and warm_rows == cold_rows
    assert cold_dl == [] and warm_dl == ["doc-long"]
