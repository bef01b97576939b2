import pyarrow as pa
import pytest

from kazu_ray.stages.sentences import add_sentence_spans, sentence_spans


def test_sentence_spans_basic():
    text = "EGFR is a gene. Melanoma was resected! Was it benign? Yes."
    spans = sentence_spans(text)
    assert [text[s:e] for s, e in spans] == [
        "EGFR is a gene.", "Melanoma was resected!", "Was it benign?", "Yes.",
    ]


def test_sentence_no_break_lowercase():
    text = "measured approx. twice daily."
    assert len(sentence_spans(text)) == 1


def test_add_sentence_spans_write_once():
    batch = pa.Table.from_pylist(
        [{"doc_id": "d", "spans": [
            {"kind": "text", "text": "One. Two.", "media_ref": "", "offset": 0},
            {"kind": "image", "text": "", "media_ref": "m://x", "offset": 9},
        ]}]
    )
    out = add_sentence_spans(batch)
    sents = out.column("sent_spans").to_pylist()[0]
    assert len(sents) == 2 and all(s["span_idx"] == 0 for s in sents)
    # spans column untouched
    assert out.column("spans").to_pylist() == batch.column("spans").to_pylist()
    with pytest.raises(ValueError):
        add_sentence_spans(out)


def test_entity_class_filter(ray_session, compiled_dicts):
    from kazu_ray.pipelines.config import PipelineConfig, build
    from kazu_ray.sources.interleave import interleaved_docs
    from kazu_ray.stages.filters import filter_docs_with_entity_class

    ann = build(
        interleaved_docs("/root/testdata/sf0.001"), compiled_dicts,
        PipelineConfig(concurrency=1),
    ).materialize()
    total = ann.count()
    drugs = filter_docs_with_entity_class(ann, "drug").materialize()
    assert 0 < drugs.count() < total
    for row in drugs.take(10):
        assert any(e["entity_class"] == "drug" for e in row["entities"])


def test_dead_letter(ray_session):
    import ray.data as rd

    from kazu_ray.pipelines.kg import prefilter_batch
    from kazu_ray.stages.filters import dead_letter

    big = "x" * 250_000
    docs = rd.from_items(
        [
            {"doc_id": "ok", "spans": [{"kind": "text", "text": "fine", "media_ref": "", "offset": 0}]},
            {"doc_id": "big", "spans": [{"kind": "text", "text": big, "media_ref": "", "offset": 0}]},
        ]
    ).map_batches(prefilter_batch, batch_format="pyarrow")
    dl = dead_letter(docs).take_all()
    assert [r["doc_id"] for r in dl] == ["big"]
    assert "too long" in dl[0]["error"]


def test_sentence_abbreviations_not_split():
    # scholarly/biomedical abbreviations followed by capitals must not
    # break the sentence (GENIA-style behaviour the rule splitter targets)
    cases = [
        "Results in Fig. 2 were clear.",
        "Smith et al. Showed the same effect.",
        "The dose was ca. 100 mg daily.",
        "Expression differs vs. Control samples.",
        "See ref. 12 for details.",
        "Group sizes (no. 5 and no. 6) matched.",
    ]
    for text in cases:
        assert len(sentence_spans(text)) == 1, text


def test_sentence_initials_not_split():
    text = "J. Smith and R. Jones reviewed the cohort."
    assert len(sentence_spans(text)) == 1
    # species shorthand never matches the boundary (lowercase follows)
    text2 = "E. coli grows on agar. B. subtilis does too."
    assert [t.split()[0] for t in
            [text2[s:e] for s, e in sentence_spans(text2)]] == ["E.", "B."]


def test_sentence_abbreviation_mid_document():
    text = "We follow Smith et al. Reported values differ. New assay used."
    spans = sentence_spans(text)
    # the et al. boundary is suppressed; the genuine one after 'differ.' is kept
    assert [text[s:e] for s, e in spans] == [
        "We follow Smith et al. Reported values differ.",
        "New assay used.",
    ]


def test_sentencizer_golden_abstracts():
    """Parity pin on REAL abstract prose (VERDICT r3 item #7): the three
    public PubMed abstracts from the reference acceptance fixtures
    (reference tests/test_assets/full_pipeline/{0,1,2}.txt) segment to
    the frozen hand-verified sentence lists — incl. the no-space joins
    ("prevalent.Although", "analyses.Objectives:"), decimal/identifier
    periods that must NOT split (0.51, CYP2C19, K(i)), and scholarly
    abbreviations ("i.e.,")."""
    import json
    import os

    from kazu_ray.stages.sentences import sentence_spans

    fdir = os.path.join(os.path.dirname(__file__), "fixtures", "abstracts")
    with open(os.path.join(fdir, "expected_sentences.json")) as fh:
        expected = json.load(fh)
    for key, exp_sents in expected.items():
        text = open(os.path.join(fdir, f"{key}.txt")).read()
        spans = sentence_spans(text)
        got = [text[s:e] for s, e in spans]
        assert got == exp_sents, key
        # spans are ordered, non-overlapping, in-bounds
        last = 0
        for s, e in spans:
            assert last <= s < e <= len(text)
            last = e


def test_sentencizer_no_space_join_guards():
    """The no-space boundary must not fire on decimals, identifiers,
    abbreviations, or single initials."""
    from kazu_ray.stages.sentences import sentence_spans

    text = "The ratio was 0.51 overall."
    assert len(sentence_spans(text)) == 1
    # abbreviation + capital via no-space is suppressed
    text2 = "Results are shown in e.g.Table form here."
    assert len(sentence_spans(text2)) == 1
    # genuine no-space join splits
    text3 = "This ended badly.Although rescue was attempted."
    sents = [text3[s:e] for s, e in sentence_spans(text3)]
    assert sents == ["This ended badly.", "Although rescue was attempted."]
    # initials never split even with following capital
    text4 = "Work by J. Smith showed this."
    assert len(sentence_spans(text4)) == 1
