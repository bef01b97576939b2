"""Token-level phrase matcher (Explosion analogue): must agree with the
char-level DictionaryNer on token-aligned matches and refuse mid-token
hits by construction."""

import pytest


@pytest.fixture(scope="module")
def matchers(compiled_dicts):
    from kazu_ray.stages.dict_ner import DictionaryNer
    from kazu_ray.stages.token_ner import TokenPhraseNer

    char_ner = DictionaryNer(compiled_dicts.curations_path, compiled_dicts.synonyms_path)
    tok_ner = TokenPhraseNer(compiled_dicts.curations_path, compiled_dicts.synonyms_path)
    return char_ner, tok_ner


def _matches(ner, text):
    return {(e["match"], e["entity_class"], e["start"], e["end"])
            for e in ner.match_span_text(text, 0)}


def test_agrees_with_char_matcher_on_clean_text(matchers):
    char_ner, tok_ner = matchers
    for text in (
        "Patients with asthma received aspirin.",
        "EGFR and KRAS mutations in melanoma",
        "the epidermal growth factor receptor pathway",
    ):
        assert _matches(tok_ner, text) == _matches(char_ner, text), text


def test_no_midtoken_hits(matchers):
    _char_ner, tok_ner = matchers
    # a surface embedded inside a longer token must not match
    got = _matches(tok_ner, "xxasthmaxx levels rose")
    assert not any(m[0].lower() == "asthma" for m in got)


def test_multiword_phrase_window(matchers):
    _char_ner, tok_ner = matchers
    got = _matches(tok_ner, "severe breast cancer cases")
    assert any(m[0] == "breast cancer" for m in got)


def test_token_match_step_group(ray_session, compiled_dicts):
    import pyarrow as pa
    import ray.data as rd

    from kazu_ray.pipelines.config import PipelineConfig, build
    from kazu_ray.sources.interleave import interleave_batch

    docs = rd.from_arrow(
        pa.table({"doc_id": [1], "text": ["Asthma was treated with aspirin."]})
    ).map_batches(interleave_batch, batch_format="pyarrow")
    out = build(docs, compiled_dicts, PipelineConfig.from_group("token_match", concurrency=1))
    rows = out.take_all()
    ents = rows[0]["entities"]
    assert any(e["match"].lower() == "asthma" for e in ents)


def test_call_runs_the_token_matcher(compiled_dicts):
    """The inherited ``__call__`` goes through the token matcher: with
    its phrase index emptied it finds nothing, where the char automaton
    would find both surfaces."""
    import pyarrow as pa

    from kazu_ray.sources.interleave import interleave_batch
    from kazu_ray.stages.token_ner import TokenPhraseNer

    batch = interleave_batch(
        pa.table({"doc_id": [1], "text": ["Asthma was treated with aspirin."]})
    )
    tok_ner = TokenPhraseNer(compiled_dicts.curations_path, compiled_dicts.synonyms_path)
    assert tok_ner(batch).column("entities").to_pylist()[0]
    tok_ner._phrases = set()
    assert tok_ner(batch).column("entities").to_pylist() == [[]]
