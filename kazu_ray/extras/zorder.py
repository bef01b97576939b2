"""Z-order (Morton) data layout — the multi-dimensional clustering
primitive behind Delta Lake ``OPTIMIZE ZORDER BY``, Iceberg sort
orders, and every min/max-pruned 100-TB scan: interleaving the bits of
two key columns gives a single sort key under which rows close in the
key space land in the same file, so BOTH columns' per-file min/max
ranges stay narrow and a reader can prune row groups on either
predicate.  (At 100 TB this is the difference between a point lookup
touching a handful of row groups and touching every file: a layout
clustered on one column prunes only that column.)

Two pieces:

- :func:`morton32` — the 16-bit x 2 bit-interleave via the classic
  magic-mask spreading (Morton 1966), vectorized numpy int64; the SQL
  twin (:data:`_SPREAD_SQL`) applies the identical shift/mask ladder in
  DuckDB, so the key itself is oracle-checked bit-for-bit.
- :func:`q_zorder_stats` — the measurable claim, as a query: bucket
  lineitem once by the top bits of the Morton key (the "file" a writer
  would emit) and once by a one-dimensional layout (order-key ranges —
  what a naive append produces), and report per-layout totals of the
  per-bucket ``max - min`` spans of BOTH clustered columns.  Z-order
  buckets bound both spans simultaneously; the 1-D layout leaves the
  non-clustered columns at full span.  All integer arithmetic — the
  oracle replays it exactly.

Scale design: the key computation is a zero-shuffle vectorized
``map_batches`` (four shift/mask ops per column); the layout action in
production is ``ds.sort("zkey")`` (Ray Data's distributed range sort —
one all-to-all, the same cost as any repartition-by-key) followed by
``write_parquet``; the stats query here buckets by key VALUE (``zkey
>> shift``), so it needs only a bounded groupby on at most 2 x
``N_BUCKETS`` keys — no global sort, no driver state.

Reference seam: KAZU has no storage-layout operators (SURVEY §2l
beyond-the-reference training-data surface).
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa

N_BUCKETS = 256  # target "file" count for the layout stats query
KEY_BITS = 16    # per-dimension key width


def _spread16(v: np.ndarray) -> np.ndarray:
    """Spread the low 16 bits of each int64 to even bit positions."""
    v = (v | (v << 8)) & 0x00FF00FF
    v = (v | (v << 4)) & 0x0F0F0F0F
    v = (v | (v << 2)) & 0x33333333
    v = (v | (v << 1)) & 0x55555555
    return v


def morton32(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Interleave two 16-bit keys into one 32-bit Morton code
    (x in even bits, y in odd bits), int64 in, int64 out.

    Key domain: only the low 16 bits of each key are used (``& 0xFFFF``),
    so keys are assumed to lie in [0, 65535].  Larger keys wrap, and
    keys 65536 apart share a Z-cell.  On lineitem, ``l_partkey``
    exceeds 65535 from about SF 0.33, after which unrelated parts share
    buckets and the z-layout's clustering degrades (results stay
    consistent: the SQL oracle applies the same mask)."""
    x = np.asarray(x, dtype=np.int64) & 0xFFFF
    y = np.asarray(y, dtype=np.int64) & 0xFFFF
    return _spread16(x) | (_spread16(y) << 1)


def zorder_key_batch(t: pa.Table, x_col: str, y_col: str) -> pa.Table:
    """Zero-shuffle map: append the Morton key column."""
    z = morton32(
        t.column(x_col).to_numpy(zero_copy_only=False),
        t.column(y_col).to_numpy(zero_copy_only=False),
    )
    return t.append_column("zkey", pa.array(z, pa.int64()))


def zorder_sort(ds, x_col: str, y_col: str):
    """The layout action: key + distributed range sort.  Writers chunk
    the sorted stream into target-size files; each file's (x, y)
    min/max envelope is then a small Z-curve segment."""
    return ds.map_batches(
        lambda t: zorder_key_batch(t, x_col, y_col), batch_format="pyarrow"
    ).sort("zkey")


def q_zorder_stats(sf_dir: str):
    """Per-layout clustering quality over lineitem (x = l_partkey,
    y = l_suppkey): bucket rows into N_BUCKETS "files" under (a) the
    Morton key and (b) a 1-D orderkey-range layout (what a naive
    append-in-arrival-order writer produces), then report the summed
    per-bucket spans of both columns.  Buckets are max-scaled integer
    ranges (``key * N_BUCKETS // (max + 1)``) so the split adapts to
    the actual key width at any scale factor — exact integers end to
    end, one scalar Max aggregate + one bounded groupby per layout."""
    import ray.data as rd
    from ray.data.aggregate import Count, Max, Min

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_partkey", "l_suppkey"],
    )

    def zkeys(t: pa.Table) -> pa.Table:
        pk = t.column("l_partkey").to_numpy(zero_copy_only=False)
        sk = t.column("l_suppkey").to_numpy(zero_copy_only=False)
        ok = t.column("l_orderkey").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "zkey": pa.array(morton32(pk, sk), pa.int64()),
                "okey": pa.array(ok, pa.int64()),
                "l_partkey": t.column("l_partkey"),
                "l_suppkey": t.column("l_suppkey"),
            }
        )

    with_keys = ds.map_batches(zkeys, batch_format="pyarrow").materialize()
    maxes = with_keys.aggregate(Max("zkey"), Max("okey"))
    max_z, max_ok = int(maxes["max(zkey)"]), int(maxes["max(okey)"])

    def keys(t: pa.Table) -> pa.Table:
        z = t.column("zkey").to_numpy(zero_copy_only=False)
        ok = t.column("okey").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "bucket_z": pa.array(z * N_BUCKETS // (max_z + 1), pa.int64()),
                "bucket_r": pa.array(ok * N_BUCKETS // (max_ok + 1), pa.int64()),
                "l_partkey": t.column("l_partkey"),
                "l_suppkey": t.column("l_suppkey"),
            }
        )

    keyed = with_keys.map_batches(keys, batch_format="pyarrow").materialize()

    def layout_stats(bucket_col: str, layout: str):
        agg = keyed.groupby(bucket_col).aggregate(
            Count(),
            Min("l_partkey"),
            Max("l_partkey"),
            Min("l_suppkey"),
            Max("l_suppkey"),
        )

        def finalize(t: pa.Table) -> pa.Table:
            n_rows = t.column("count()").to_numpy(zero_copy_only=False)
            p_span = t.column("max(l_partkey)").to_numpy(
                zero_copy_only=False
            ) - t.column("min(l_partkey)").to_numpy(zero_copy_only=False)
            s_span = t.column("max(l_suppkey)").to_numpy(
                zero_copy_only=False
            ) - t.column("min(l_suppkey)").to_numpy(zero_copy_only=False)
            return pa.table(
                {
                    "layout": pa.array([layout] * t.num_rows),
                    "n_buckets": pa.array(np.ones(t.num_rows, np.int64)),
                    "n_rows": pa.array(n_rows.astype(np.int64)),
                    "sum_part_span": pa.array(p_span.astype(np.int64)),
                    "sum_supp_span": pa.array(s_span.astype(np.int64)),
                }
            )

        return agg.map_batches(finalize, batch_format="pyarrow")

    from ray.data.aggregate import Sum

    both = layout_stats("bucket_z", "zorder").union(
        layout_stats("bucket_r", "rowid")
    )
    return (
        both.groupby("layout")
        .aggregate(
            Sum("n_buckets", alias_name="n_buckets"),
            Sum("n_rows", alias_name="n_rows"),
            Sum("sum_part_span", alias_name="sum_part_span"),
            Sum("sum_supp_span", alias_name="sum_supp_span"),
        )
        .sort("layout")
    )


# the SQL twin of _spread16 — identical shift/mask ladder; {v} is the
# input expression, already masked to 16 bits
def _spread_sql(v: str) -> str:
    s = f"(({v}) & 65535)"
    for sh, mask in ((8, 16711935), (4, 252645135), (2, 858993459), (1, 1431655765)):
        s = f"((({s}) | (({s}) << {sh})) & {mask})"
    return s


def zorder_oracle_sql() -> str:
    """DuckDB replay: same Morton ladder, same max-scaled bucketing,
    same spans.  ``//`` in the engine is plain integer division on
    non-negative ints, so DuckDB's ``//`` matches exactly."""
    zx = _spread_sql("l_partkey")
    zy = _spread_sql("l_suppkey")
    return f"""
        WITH zk AS (
          SELECT ({zx} | ({zy} << 1)) AS zkey, l_orderkey AS okey,
                 l_partkey, l_suppkey
          FROM lineitem
        ),
        mx AS (SELECT MAX(zkey) AS max_z, MAX(okey) AS max_ok FROM zk),
        keyed AS (
          SELECT (zkey * {N_BUCKETS}) // (max_z + 1) AS bucket_z,
                 (okey * {N_BUCKETS}) // (max_ok + 1) AS bucket_r,
                 l_partkey, l_suppkey
          FROM zk CROSS JOIN mx
        ),
        z AS (
          SELECT 'zorder' AS layout, COUNT(*) AS n_rows,
                 MAX(l_partkey) - MIN(l_partkey) AS p_span,
                 MAX(l_suppkey) - MIN(l_suppkey) AS s_span
          FROM keyed GROUP BY bucket_z
        ),
        r AS (
          SELECT 'rowid' AS layout, COUNT(*) AS n_rows,
                 MAX(l_partkey) - MIN(l_partkey) AS p_span,
                 MAX(l_suppkey) - MIN(l_suppkey) AS s_span
          FROM keyed GROUP BY bucket_r
        ),
        u AS (SELECT * FROM z UNION ALL SELECT * FROM r)
        SELECT layout,
               CAST(COUNT(*) AS BIGINT) AS n_buckets,
               CAST(SUM(n_rows) AS BIGINT) AS n_rows,
               CAST(SUM(p_span) AS BIGINT) AS sum_part_span,
               CAST(SUM(s_span) AS BIGINT) AS sum_supp_span
        FROM u GROUP BY layout ORDER BY layout
    """
