"""Prefix-filtered exact set-similarity join: prefix-length math,
hand-crafted completeness case, partition invariance, and the
brute-force DuckDB oracle."""

import duckdb
import pyarrow as pa

from kazu_ray.extras.setsim import (
    SHINGLE_K,
    _prefix_len,
    q_setsim_pairs,
    setsim_join,
    setsim_oracle_sql,
)


def test_prefix_len_math():
    # p = n - ceil(4n/5) + 1, exact integers
    assert _prefix_len(5) == 2   # ceil(4) = 4
    assert _prefix_len(10) == 3  # ceil(8) = 8
    assert _prefix_len(11) == 3  # ceil(8.8) = 9
    assert _prefix_len(1) == 1
    # the theorem's boundary: two sets sharing NOTHING in either prefix
    # have intersection <= n - p < ceil(t*n), hence Jaccard < t
    for n in range(1, 50):
        p = _prefix_len(n)
        assert n - p + 1 == -(-4 * n // 5)


def test_setsim_hand_case(ray_session):
    """Two near-identical docs must pair; a disjoint doc must not."""
    import ray.data as rd

    base = "alpha beta gamma delta epsilon zeta eta theta iota kappa"
    rows = [
        {"doc_id": 1, "text": base},
        {"doc_id": 2, "text": base + " lambda"},  # one extra word
        {"doc_id": 3, "text": "one two three four five six seven"},
    ]
    ds = rd.from_arrow(pa.Table.from_pylist(rows))
    _, pairs = setsim_join(ds)
    got = {(r["doc_a"], r["doc_b"]): r["jaccard"] for r in pairs.take_all()}
    assert set(got) == {(1, 2)}
    # doc1 has 8 shingles, doc2 has 9, intersection 8, union 9
    assert abs(got[(1, 2)] - 8 / 9) < 1e-15
    assert 8 / 9 >= 0.8


def test_setsim_partition_invariance(ray_session):
    """The same pair rows at 1 and 8 exchange partitions."""
    import ray.data as rd

    ds = rd.read_parquet(
        "/root/testdata/sf0.001/documents.parquet", columns=["doc_id", "text"]
    )
    got = []
    for nparts in (1, 8):
        _, pairs = setsim_join(ds, num_partitions=nparts)
        got.append(
            sorted((r["doc_a"], r["doc_b"], r["jaccard"]) for r in pairs.take_all())
        )
    assert got[0] == got[1] and len(got[0]) > 0


def test_setsim_oracle_parity(ray_session):
    sf = "/root/testdata/sf0.001"
    got = q_setsim_pairs(sf).to_pandas()
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * "
        f"FROM read_parquet('{sf}/documents.parquet')"
    )
    exp = con.execute(setsim_oracle_sql()).df()
    assert got[exp.columns.tolist()].reset_index(drop=True).astype(str).equals(
        exp.astype(str)
    )
    assert len(got) > 0
    assert SHINGLE_K == 3
