"""Global keep-first chunk dedup: exact SQL parity, partition
invariance, and keep-first semantics on a hand fixture."""

import duckdb
import pandas as pd
import pyarrow as pa
import pytest

import kazu_ray.extras.chunk_dedup as chunk_dedup_mod


def _oracle(docs: pd.DataFrame, k: int) -> pd.DataFrame:
    from kazu_ray.extras.chunk_dedup import chunk_dedup_oracle_sql

    con = duckdb.connect()
    con.register("documents", docs)
    return con.execute(chunk_dedup_oracle_sql(k)).df()


def _run(docs: pd.DataFrame, k: int, nparts: int) -> pd.DataFrame:
    import ray.data as rd

    from kazu_ray.extras.chunk_dedup import chunk_dedup

    ds = rd.from_arrow(pa.Table.from_pandas(docs, preserve_index=False))
    return (
        chunk_dedup(ds, k=k, num_partitions=nparts)
        .sort("doc_id")
        .to_pandas()
        .reset_index(drop=True)
    )


def _assert_equal(got: pd.DataFrame, exp: pd.DataFrame):
    assert len(got) == len(exp)
    for c in ("doc_id", "n_chunks", "n_kept"):
        assert (got[c].astype("int64").values == exp[c].astype("int64").values).all(), c
    assert (got["kept_frac"].values == exp["kept_frac"].values).all()
    assert (
        got["kept_digest"].fillna("~").values == exp["kept_digest"].fillna("~").values
    ).all()


def test_chunk_dedup_oracle_parity(ray_session):
    import pyarrow.parquet as pq

    docs = pq.read_table(
        "/root/testdata/sf0.001/documents.parquet", columns=["doc_id", "text"]
    ).to_pandas()
    got = _run(docs, k=10, nparts=8)
    exp = _oracle(docs, k=10)
    _assert_equal(got, exp)
    # the corpus actually exercises dedup: some docs lose chunks, some
    # lose everything (full duplicates of earlier docs)
    assert (got["n_kept"] < got["n_chunks"]).any()
    assert (got["n_kept"] == 0).any()


def test_chunk_dedup_partition_invariance(ray_session):
    docs = pd.DataFrame(
        {
            "doc_id": range(40),
            "text": [
                " ".join(f"w{(i * 7 + j) % 23}" for j in range(5 + i % 17))
                for i in range(40)
            ],
        }
    )
    a = _run(docs, k=4, nparts=2)
    b = _run(docs, k=4, nparts=11)
    _assert_equal(a, b)
    _assert_equal(a, _oracle(docs, k=4))


def test_chunk_dedup_keep_first_semantics(ray_session):
    # doc 0 owns chunks A B; doc 1 repeats A then adds C; doc 2 is A B
    # verbatim (fully dropped); doc 3 repeats its own first chunk.
    a = "a1 a2 a3"
    b = "b1 b2 b3"
    c = "c1 c2 c3"
    docs = pd.DataFrame(
        {
            "doc_id": [0, 1, 2, 3],
            "text": [f"{a} {b}", f"{a} {c}", f"{a} {b}", f"{c} {c}"],
        }
    )
    got = _run(docs, k=3, nparts=3)
    assert got["n_chunks"].tolist() == [2, 2, 2, 2]
    # doc 0 keeps both; doc 1 loses A, keeps C (first C wins over doc 3
    # only by (doc_id, chunk_no) order: doc 1 < doc 3); doc 2 loses all;
    # doc 3 loses both copies of C (doc 1 owns C).
    assert got["n_kept"].tolist() == [2, 1, 0, 0]
    assert got["kept_digest"].isna().tolist() == [False, False, True, True]
    _assert_equal(got, _oracle(docs, k=3))


def test_chunk_dedup_trailing_partial_chunk(ray_session):
    # 7 words at k=3 -> chunks of 3,3,1; the 1-word trailing chunk is a
    # real chunk on both engines
    docs = pd.DataFrame({"doc_id": [0], "text": ["x1 x2 x3 x4 x5 x6 x7"]})
    got = _run(docs, k=3, nparts=2)
    assert got["n_chunks"].tolist() == [3]
    _assert_equal(got, _oracle(docs, k=3))


@pytest.mark.parametrize("max_losers", [0, 10_000_000])
def test_chunk_dedup_both_routes_match_oracle(ray_session, monkeypatch, max_losers):
    # max_losers=0 forces the co-group fallback (text crosses one
    # exchange); the big cap forces the broadcast path (text never
    # leaves a batch).  Both must be bit-equal to the SQL oracle,
    # including on a corpus where docs lose some or all chunks.
    docs = pd.DataFrame(
        {
            "doc_id": range(60),
            "text": [
                " ".join(f"t{(i * 5 + j) % 31}" for j in range(3 + i % 13))
                for i in range(60)
            ],
        }
    )
    monkeypatch.setattr(chunk_dedup_mod, "BROADCAST_MAX_LOSERS", max_losers)
    got = _run(docs, k=4, nparts=5)
    _assert_equal(got, _oracle(docs, k=4))
    assert (got["n_kept"] < got["n_chunks"]).any()


def test_chunk_dedup_fallback_no_losers(ray_session, monkeypatch):
    # all-unique corpus through BOTH routes: the loser table is empty,
    # which must not break the broadcast anti-join or the union schema
    docs = pd.DataFrame(
        {"doc_id": [0, 1], "text": ["alpha beta gamma", "delta epsilon zeta"]}
    )
    for cap in (-1, 100):
        monkeypatch.setattr(chunk_dedup_mod, "BROADCAST_MAX_LOSERS", cap)
        got = _run(docs, k=2, nparts=3)
        assert got["n_kept"].tolist() == got["n_chunks"].tolist()
        _assert_equal(got, _oracle(docs, k=2))


def test_chunk_dedup_empty_doc_excluded(ray_session):
    docs = pd.DataFrame({"doc_id": [0, 1], "text": ["only words here", "!!! ???"]})
    got = _run(docs, k=2, nparts=2)
    assert got["doc_id"].tolist() == [0]
    _assert_equal(got, _oracle(docs, k=2))
