"""Tests for the hash exchange primitive (kazu_ray/exchange.py)."""

import pyarrow as pa
import pytest

from kazu_ray.exchange import PART, hash_partition, hash_reduce


def _reducer():
    """Reducer: (k, n, s) rows per key within one partition, so a key
    split over two partitions would show up as two output rows.  Built
    in a closure so Ray workers receive it by value."""

    def count_per_key(t: pa.Table) -> pa.Table:
        assert PART not in t.column_names
        return t.group_by("k").aggregate([("v", "count"), ("v", "sum")]).rename_columns(
            ["k", "n", "s"]
        )

    return count_per_key


def _rows(ds):
    return sorted(ds.take_all(), key=lambda r: (r["k"] is None, r["k"]))


def _table(n=200):
    return pa.table(
        {"k": [f"key{i % 37}" for i in range(n)], "v": list(range(n))}
    )


def _expected(t: pa.Table):
    out = {}
    for k, v in zip(t.column("k").to_pylist(), t.column("v").to_pylist()):
        n, s = out.get(k, (0, 0))
        out[k] = (n + 1, s + v)
    return sorted(
        ({"k": k, "n": n, "s": s} for k, (n, s) in out.items()),
        key=lambda r: (r["k"] is None, r["k"]),
    )


@pytest.mark.parametrize("n_parts", [1, 3, 16])
def test_same_rows_at_any_partition_count(ray_session, n_parts):
    import ray.data as rd

    t = _table()
    ds = rd.from_arrow(t).repartition(5)
    assert _rows(hash_reduce(ds, ["k"], _reducer(), n_parts)) == _expected(t)


def test_empty_dataset(ray_session):
    import ray.data as rd

    ds = rd.from_arrow(_table(0))
    assert hash_reduce(ds, ["k"], _reducer(), 4).take_all() == []


def test_zero_row_blocks_mid_stream(ray_session):
    import ray.data as rd

    t = _table(60)
    empty = t.slice(0, 0)
    blocks = [t.slice(0, 20), empty, t.slice(20, 20), empty, t.slice(40, 20)]
    ds = rd.from_arrow(blocks)
    assert _rows(hash_reduce(ds, ["k"], _reducer(), 4)) == _expected(t)


def test_all_null_keys_are_kept(ray_session):
    import ray.data as rd

    t = pa.table({"k": pa.nulls(10, pa.string()), "v": list(range(10))})
    out = hash_reduce(rd.from_arrow(t).repartition(3), ["k"], _reducer(), 4)
    assert out.take_all() == [{"k": None, "n": 10, "s": 45}]
    parts = hash_partition(t, ["k"], 4).to_pylist()
    assert len(set(parts)) == 1


def test_separately_partitioned_datasets_meet(ray_session):
    """Two datasets partitioned on the same key by separate calls agree
    row for row, so their union co-locates every key once — the
    co-partitioning the chunk_dedup / cdc / graph unions rely on."""
    import ray.data as rd

    left = pa.table({"k": [f"d{i}" for i in range(50)], "v": [1] * 50})
    right = pa.table({"k": [f"d{i}" for i in range(0, 50, 2)], "v": [10] * 25})
    lp = dict(zip(left.column("k").to_pylist(), hash_partition(left, ["k"], 7).to_pylist()))
    rp = dict(zip(right.column("k").to_pylist(), hash_partition(right, ["k"], 7).to_pylist()))
    assert all(lp[k] == p for k, p in rp.items())

    both = rd.from_arrow(left).union(rd.from_arrow(right))
    rows = _rows(hash_reduce(both, ["k"], _reducer(), 7))
    assert len(rows) == 50
    assert all(r["n"] == (2 if int(r["k"][1:]) % 2 == 0 else 1) for r in rows)


def test_partition_values_pinned():
    """The flagship's edge and node exchanges partition exactly as
    ``concat_str(keys, "\\x1f").hash(seed=7) % n``."""
    import polars as pl

    edges = pa.table(
        {
            "subj": ["CHEBI:1", "MENTION:egfr", None, "doc-7"],
            "pred": ["co-occurs", "maps-to", "maps-to", "mentions"],
            "obj": ["CHEBI:2", "HGNC:3236", "X:1", "MONDO:4"],
        }
    )
    keys = ["subj", "pred", "obj"]
    want = (
        pl.from_arrow(edges)
        .select(p=(pl.concat_str(keys, separator="\x1f").hash(seed=7) % 24).cast(pl.Int64))["p"]
        .to_list()
    )
    assert hash_partition(edges, keys, 24).to_pylist() == want

    curies = pa.table({"curie": ["CHEBI:1", "HGNC:3236", "MONDO:4", None]})
    want = (
        pl.from_arrow(curies)
        .select(p=(pl.concat_str(["curie"], separator="\x1f").hash(seed=7) % 8).cast(pl.Int64))["p"]
        .to_list()
    )
    assert hash_partition(curies, ["curie"], 8).to_pylist() == want
