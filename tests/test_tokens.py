from kazu_ray.functions.tokens import boundary_sets, tokenize


def toks(text):
    return [t.text for t in tokenize(text)]


def test_basic_split():
    assert toks("EGFR is a gene") == ["EGFR", "is", "a", "gene"]


def test_no_hyphen_split():
    # reference removes the hyphen infix rule (spacy_pipeline.py:42-49)
    assert toks("ALK-Abello and EGFR-positive cases") == [
        "ALK-Abello", "and", "EGFR-positive", "cases",
    ]
    assert toks("non-small cell lung cancer") == ["non-small", "cell", "lung", "cancer"]


def test_parens_and_slash():
    assert toks("receptor (EGFR) and BRCA1/2") == [
        "receptor", "(", "EGFR", ")", "and", "BRCA1", "/", "2",
    ]


def test_single_upper_letter_period():
    # "Haemophilia A." must yield token "A" (spacy_pipeline.py:51-59, 64-69)
    assert toks("Haemophilia A.") == ["Haemophilia", "A", "."]


def test_digit_group_comma_kept():
    assert toks("1,000 mg, daily") == ["1,000", "mg", ",", "daily"]


def test_possessive_kept():
    assert toks("Alzheimer's disease") == ["Alzheimer's", "disease"]


def test_offsets_roundtrip():
    text = "Treated NSCLC (non-small cell lung cancer) with IL-6."
    for t in tokenize(text):
        assert text[t.start:t.end] == t.text


def test_boundary_sets():
    text = "EGFR-positive"
    starts, ends = boundary_sets(text)
    assert 0 in starts and len(text) in ends
    # 'EGFR' alone is not boundary-valid inside 'EGFR-positive'
    assert 4 not in ends
