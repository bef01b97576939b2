"""Duplicated-passage detection (extras/passages.py).

Hand-computed fixtures over tiny corpora (known shared k-grams), DuckDB
parity on the same fixture, and a partition-invariance check (the gram
exchange must give identical counts for any coarse partition count)."""

import duckdb
import pyarrow as pa
import pytest

from kazu_ray.extras.passages import (
    _doc_grams_batch,
    dup_passages_oracle_sql,
    duplicated_passages,
)


def _docs(texts):
    return pa.table(
        {
            "doc_id": pa.array(list(range(len(texts))), type=pa.int64()),
            "text": pa.array(texts),
        }
    )


CORPUS = [
    "alpha beta gamma delta epsilon zeta",          # shares 1st 5-gram with doc1
    "alpha beta gamma delta epsilon other words",   # → dup
    "totally different content with no overlap here",
    "short doc",                                    # < k words → excluded
    "alpha beta gamma delta epsilon zeta",          # exact duplicate of doc0
]


def test_doc_grams_distinct_and_windowed():
    from kazu_ray.exchange import hash_partition

    t = _doc_grams_batch(_docs(["a b a b a b"]), k=2)
    grams = sorted(t.column("gram").to_pylist())
    # windows: a b, b a, a b, b a, a b → distinct {a b, b a}
    assert grams == ["a b", "b a"]
    assert all(0 <= p < 4 for p in hash_partition(t, ["gram"], 4).to_pylist())


@pytest.mark.parametrize("nparts", [1, 3, 16])
def test_duplicated_passages_fixture(ray_session, nparts):
    import ray.data as rd

    ds = rd.from_arrow(_docs(CORPUS))
    got = {
        r["doc_id"]: r
        for r in duplicated_passages(ds, k=5, num_partitions=nparts).take_all()
    }
    # doc3 excluded (2 words); doc2 has 4 grams none duplicated
    assert set(got) == {0, 1, 2, 4}
    assert got[2]["n_dup"] == 0 and got[2]["dup_frac"] == 0.0
    # doc0/doc4 identical: every gram duplicated
    assert got[0]["dup_frac"] == 1.0 and got[4]["dup_frac"] == 1.0
    # doc1: grams 1-3 of 3 ... only 'alpha beta gamma delta epsilon'
    # is shared; 3 grams total
    assert got[1]["n_grams"] == 3 and got[1]["n_dup"] == 1
    assert got[1]["dup_frac"] == 1 / 3


def test_duckdb_parity_fixture(ray_session):
    import ray.data as rd

    con = duckdb.connect()
    con.register("documents", _docs(CORPUS))
    want = con.execute(dup_passages_oracle_sql(k=5)).fetchdf()
    got = (
        duplicated_passages(rd.from_arrow(_docs(CORPUS)), k=5, num_partitions=4)
        .sort("doc_id")
        .to_pandas()
        .reset_index(drop=True)
    )
    import pandas.testing as pt

    pt.assert_frame_equal(got, want, check_dtype=False)


def test_decontaminate_fixture(ray_session):
    """Hand-built corpus: doc 0 is 'benchmark' (BENCH_MOD divides it),
    doc 1 copies one of its passages, doc 2 shares nothing."""
    import ray.data as rd

    from kazu_ray.extras.passages import decontaminate, _doc_grams_batch

    bench = _docs(["the secret answer is forty two exactly"])
    bench_grams = set(
        _doc_grams_batch(bench, k=5).column("gram").to_pylist()
    )
    corpus = _docs(
        [
            "prefix words the secret answer is forty two and more",  # overlaps
            "completely unrelated content with no shared passages here",
        ]
    )
    got = {
        r["doc_id"]: r
        for r in decontaminate(rd.from_arrow(corpus), bench_grams, k=5).take_all()
    }
    assert got[0]["contaminated"] and got[0]["n_hits"] >= 1
    assert not got[1]["contaminated"] and got[1]["n_hits"] == 0
