"""Content-defined chunking dedup (extras/cdc.py): chunker invariants
(tiling, length bounds, determinism, edit robustness — the property
fixed word-chunking lacks) and distributed-vs-reference path equality
on the real corpus, including the co-group fallback."""

import hashlib

import numpy as np
import pytest

from kazu_ray.extras.cdc import (
    MAX_LEN,
    MIN_LEN,
    cdc_reference,
    chunk_spans,
    q_cdc_dedup,
)

SF = "/root/testdata/sf0.001"


def _text(n_words: int, seed: int) -> str:
    rng = np.random.default_rng(seed)
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "kappa"]
    return " ".join(words[i] for i in rng.integers(0, len(words), n_words))


def test_spans_tile_and_bounds():
    for seed in range(5):
        data = _text(600, seed).encode()
        spans = chunk_spans(data)
        # spans tile the document exactly
        assert spans[0][0] == 0 and spans[-1][1] == len(data)
        for (s0, e0), (s1, _) in zip(spans, spans[1:]):
            assert e0 == s1
        # every span but the trailing remainder respects [MIN, MAX]
        for s, e in spans[:-1]:
            assert MIN_LEN <= e - s <= MAX_LEN
        assert spans[-1][1] - spans[-1][0] <= MAX_LEN


def test_short_and_empty_docs():
    assert chunk_spans(b"") == []
    assert chunk_spans(b"tiny") == [(0, 4)]
    data = b"x" * (MIN_LEN - 1)
    assert chunk_spans(data) == [(0, len(data))]


def test_determinism():
    data = _text(500, 42).encode()
    assert chunk_spans(data) == chunk_spans(data)


def test_edit_robustness():
    """Inserting a few bytes near the top re-synchronises: most chunk
    contents downstream of the edit are byte-identical — the property
    that makes CDC dedup edit-robust where fixed chunking is not."""
    base = _text(900, 7).encode()
    edited = base[:100] + b"INSERTED " + base[100:]

    def chunk_hashes(data: bytes) -> set[bytes]:
        return {
            hashlib.md5(data[s:e]).digest() for s, e in chunk_spans(data)
        }

    a, b = chunk_hashes(base), chunk_hashes(edited)
    shared = len(a & b) / len(a)
    assert shared > 0.6, f"only {shared:.2f} of chunks survived a 9-byte insert"


def test_reference_keep_first_semantics():
    import pandas as pd

    # two identical docs: the second loses every chunk
    text = _text(400, 3)
    docs = pd.DataFrame({"doc_id": [1, 2], "text": [text, text]})
    out = cdc_reference(docs)
    first, second = out.iloc[0], out.iloc[1]
    assert first["n_kept"] == first["n_chunks"]
    assert second["n_kept"] == 0
    assert second["kept_digest"] is None or pd.isna(second["kept_digest"])


def test_distributed_matches_reference(ray_session):
    import pyarrow.parquet as pq

    got = q_cdc_dedup(SF).to_pandas().reset_index(drop=True)
    docs = pq.read_table(
        f"{SF}/documents.parquet", columns=["doc_id", "text"]
    ).to_pandas()
    exp = cdc_reference(docs).sort_values("doc_id").reset_index(drop=True)
    assert len(got) == len(exp)
    assert (got["doc_id"].values == exp["doc_id"].values).all()
    assert (got["n_chunks"].values == exp["n_chunks"].values).all()
    assert (got["n_kept"].values == exp["n_kept"].values).all()
    assert (
        got["kept_digest"].fillna("~").values
        == exp["kept_digest"].fillna("~").values
    ).all()


def test_cogroup_fallback_equals_broadcast(ray_session, monkeypatch):
    """Forcing the loser table past the broadcast cap exercises the
    co-group path; both routes must produce the identical frame."""
    import ray.data as rd

    import kazu_ray.extras.cdc as cdc

    ds = rd.read_parquet(
        f"{SF}/documents.parquet", columns=["doc_id", "text"]
    )
    monkeypatch.setattr(cdc, "BROADCAST_MAX_LOSERS", 10**9)
    a = (
        cdc.cdc_dedup(ds)
        .sort("doc_id")
        .to_pandas()
        .reset_index(drop=True)
    )
    monkeypatch.setattr(cdc, "BROADCAST_MAX_LOSERS", -1)
    b = (
        cdc.cdc_dedup(ds)
        .sort("doc_id")
        .to_pandas()
        .reset_index(drop=True)
    )
    assert len(a) == len(b) > 0
    for col in ["doc_id", "n_chunks", "n_kept"]:
        assert (a[col].values == b[col].values).all(), col
    assert (
        a["kept_digest"].fillna("~").values == b["kept_digest"].fillna("~").values
    ).all()


def test_gate_row(ray_session):
    from kazu_ray.extras.metrics import q_cdc_parity

    m = q_cdc_parity(SF).iloc[0]
    assert bool(m["paths_equal"]) and m["n_docs"] > 0
