"""Unsupervised Punkt sentencizer: learned parameters, boundary F1 on
the deterministic prose corpus, exact agreement with the golden rule-
sentencizer spans on the real abstract fixtures, and the actor stage.
Statistical analogue of the reference's genia-Stanza segmenter
(/root/reference/kazu/steps/other/stanza.py:14-117)."""

import json
import os

import pyarrow as pa
import pytest

import ray.data as rd

from kazu_ray.sources.prose import prose_doc, prose_table
from kazu_ray.stages.punkt import (
    PunktParameters,
    PunktSentencizer,
    sentence_spans_punkt,
    train_punkt,
)

FDIR = os.path.join(os.path.dirname(__file__), "fixtures", "abstracts")


@pytest.fixture(scope="module")
def trained_params(ray_session):
    abstracts = [open(os.path.join(FDIR, f"{k}.txt")).read() for k in "012"]
    tab = prose_table(300)
    extra = pa.table(
        {
            "doc_id": pa.array([1000, 1001, 1002], type=pa.int64()),
            "text": pa.array(abstracts, type=pa.string()),
        }
    )
    return train_punkt(rd.from_arrow(pa.concat_tables([tab, extra])))


def test_learned_abbreviations(trained_params):
    # every seeded scholarly abbreviation is learned from raw text
    for abbrev in ["approx", "vs", "e.g", "i.e", "fig", "no", "ca", "dr",
                   "al", "spp"]:
        assert abbrev in trained_params.abbrev_types, abbrev
    # ordinary vocabulary words are NOT classified as abbreviations
    for word in ["patients", "results", "units", "the"]:
        assert word not in trained_params.abbrev_types, word
    # frequent sentence starters are discovered
    assert "the" in trained_params.sent_starters
    assert "we" in trained_params.sent_starters


def test_boundary_f1_is_exact_on_prose(trained_params):
    tp = fp = fn = 0
    for i in range(300):
        text, true_spans = prose_doc(i)
        pred = set(sentence_spans_punkt(text, trained_params))
        ts = set(true_spans)
        tp += len(ts & pred)
        fp += len(pred - ts)
        fn += len(ts - pred)
    assert fp == 0 and fn == 0 and tp > 1500


def test_exact_agreement_with_golden_abstract_spans(trained_params):
    """The learned segmenter reproduces the rule sentencizer's golden
    spans on all three real abstracts (the same fixture that pins the
    rule engine in test_sentences_filters)."""
    with open(os.path.join(FDIR, "expected_sentences.json")) as fh:
        expected = json.load(fh)
    for k in "012":
        text = open(os.path.join(FDIR, f"{k}.txt")).read()
        pred = [text[s:e] for s, e in sentence_spans_punkt(text, trained_params)]
        assert pred == expected[k], k


def test_training_is_deterministic(ray_session):
    ds1 = rd.from_arrow(prose_table(120))
    ds2 = rd.from_arrow(prose_table(120))
    p1, p2 = train_punkt(ds1), train_punkt(ds2)
    assert p1.abbrev_types == p2.abbrev_types
    assert p1.sent_starters == p2.sent_starters
    assert p1.collocations == p2.collocations
    assert p1.ortho_context == p2.ortho_context


def test_binding_caps_do_not_depend_on_partitions(ray_session):
    """With caps small enough to bind, the learned parameters are the
    global top-k, the same at 1 and 4 exchange partitions."""
    ds = rd.from_arrow(prose_table(120))
    p1, p4 = (
        train_punkt(ds, max_candidates=3, max_types=20, num_partitions=n)
        for n in (1, 4)
    )
    assert len(p1.ortho_context) == 20
    assert p1 == p4


def test_hard_cases(trained_params):
    p = trained_params
    # abbreviation followed by lowercase: no break
    assert len(sentence_spans_punkt("The value was approx. twenty units.", p)) == 1
    # title + initial + proper noun: no break at either period
    assert len(sentence_spans_punkt("We met Dr. J. Smith in London.", p)) == 1
    # genuine boundary before a frequent starter
    spans = sentence_spans_punkt("The dose was reduced. We measured the outcome.", p)
    assert len(spans) == 2
    # decimals never break
    assert len(sentence_spans_punkt("The ratio was 3.51 overall.", p)) == 1
    # glued-abstract repair: period + Uppercase-lowercase inside a token
    spans = sentence_spans_punkt("the original analyses.Objectives were met.", p)
    assert len(spans) == 2
    # ? and ! always break
    assert len(sentence_spans_punkt("Was it higher? We think so!", p)) == 2


def test_sentencizer_stage(trained_params, ray_session):
    batch = pa.table(
        {
            "doc_id": pa.array(["d0"], type=pa.string()),
            "spans": pa.array(
                [
                    [
                        {
                            "kind": "text",
                            "text": "The dose was reduced. We measured it.",
                            "media_ref": "",
                            "offset": 0,
                        }
                    ]
                ]
            ),
        }
    )
    out = PunktSentencizer(trained_params)(batch)
    sents = out.column("sent_spans").to_pylist()[0]
    assert [s["span_idx"] for s in sents] == [0, 0]
    assert sents[0]["start"] == 0 and sents[0]["end"] == 21
    # write-once invariant shared with the rule stage
    with pytest.raises(ValueError):
        PunktSentencizer(trained_params)(out)


def test_empty_and_degenerate_inputs():
    p = PunktParameters()
    assert sentence_spans_punkt("", p) == []
    assert sentence_spans_punkt("   ", p) == []
    assert sentence_spans_punkt("word", p) == [(0, 4)]
    assert sentence_spans_punkt("No period here", p) == [(0, 14)]
