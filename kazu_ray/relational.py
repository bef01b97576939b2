"""General relational operators over the TPC-H-ish driver tables.

The KG pipeline is the flagship, but the engine's primitives — pruned
parquet reads, vectorized filter/project, partial+final aggregation,
broadcast hash joins, partitioned hash joins, sort/top-k, distinct — are
exposed here as standalone query functions.  Each has a DuckDB oracle in
``__ray_entry__.oracle_sql`` (driver correctness gate).

Conventions for oracle hash-parity:
- every aggregate column is explicitly named identically on both sides;
- float aggregates are rounded to a fixed precision on both sides;
- integer sums are cast to int64 on both sides (DuckDB SUM(BIGINT)
  returns HUGEINT otherwise).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .exchange import hash_reduce
from .functions.rounding import pc_round_sql


def _rd():
    import ray.data as rd

    return rd


# ---------------------------------------------------------------------------
# scans / filters / aggregates
# ---------------------------------------------------------------------------


def q_lineitem_agg(sf_dir: str):
    """TPC-H Q1-shaped: pruned read -> vectorized filter -> grouped agg."""
    from ray.data.aggregate import Count, Mean, Sum

    ds = _rd().read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity",
                 "l_extendedprice", "l_discount", "l_shipdate"],
    )

    def prep(t: pa.Table) -> pa.Table:
        t = t.filter(pc.less_equal(t["l_shipdate"], pa.scalar(np.datetime64("1998-09-02", "us"))))
        rev = pc.multiply(t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"]))
        return t.append_column("revenue", rev)

    out = (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("l_quantity", alias_name="sum_qty"),
            Sum("revenue", alias_name="sum_revenue"),
            Mean("l_discount", alias_name="avg_disc"),
            Count(alias_name="n_rows"),
        )
        .sort(["l_returnflag", "l_linestatus"])
    )

    def final(t: pa.Table) -> pa.Table:
        t = t.set_column(t.schema.get_field_index("sum_qty"), "sum_qty",
                         pc_round_sql(t["sum_qty"], 2))
        t = t.set_column(t.schema.get_field_index("sum_revenue"), "sum_revenue",
                         pc_round_sql(t["sum_revenue"], 2))
        t = t.set_column(t.schema.get_field_index("avg_disc"), "avg_disc",
                         pc_round_sql(t["avg_disc"], 4))
        return t

    return out.map_batches(final, batch_format="pyarrow")


def q_orders_topk(sf_dir: str):
    """Top-10 orders by revenue: partial per-batch agg -> groupby -> sort/limit."""
    from ray.data.aggregate import Sum

    ds = _rd().read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
    )

    def add_rev(t: pa.Table) -> pa.Table:
        rev = pc.multiply(
            t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"])
        )
        return pa.table({"l_orderkey": t["l_orderkey"], "rev": rev})

    def block_topk(t: pa.Table) -> pa.Table:
        # keys are unique after the groupby, so per-block top-10 covers
        # the global top-10; no global sort needed
        if t.num_rows <= 10:
            return t
        order = pc.sort_indices(
            t, sort_keys=[("revenue", "descending"), ("l_orderkey", "ascending")]
        )
        return t.take(order.slice(0, 10))

    from .context import input_bytes, shuffle_partitions

    # high-cardinality key: pin shuffle partitions to the CPU count —
    # Ray's default over-partitions this groupby (~40% slower measured) —
    # but scale past the pin with input size so one partition stays heap-safe
    grouped = (
        ds.map_batches(add_rev, batch_format="pyarrow")
        .groupby(
            "l_orderkey",
            num_partitions=shuffle_partitions(
                estimated_bytes=input_bytes(f"{sf_dir}/lineitem.parquet")
            ),
        )
        .aggregate(Sum("rev", alias_name="revenue"))
        .map_batches(block_topk, batch_format="pyarrow")
    )
    # tiny merge: <=10 rows per block survive
    import ray.data as rd

    empty = pa.table(
        {"l_orderkey": pa.array([], pa.int64()), "revenue": pa.array([], pa.float64())}
    )
    merged = pa.concat_tables(
        [empty, *grouped.iter_batches(batch_format="pyarrow", batch_size=None)],
        promote_options="permissive",
    )
    order = pc.sort_indices(
        merged, sort_keys=[("revenue", "descending"), ("l_orderkey", "ascending")]
    )
    top = merged.take(order.slice(0, 10))
    top = top.set_column(
        top.schema.get_field_index("revenue"), "revenue", pc_round_sql(top["revenue"], 2)
    )
    return rd.from_arrow(top)


def q_events_hourly(sf_dir: str):
    """Stream-shaped tumbling window: group by (event_type, hour bucket)."""
    from ray.data.aggregate import Count, Sum

    ds = _rd().read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "event_type", "value"]
    )

    def bucket(t: pa.Table) -> pa.Table:
        epoch = pc.cast(t["ts"], pa.int64())  # microseconds
        hour = pc.divide(epoch, pa.scalar(3_600_000_000))
        return t.append_column("hour_bucket", hour).drop_columns(["ts"])

    out = (
        ds.map_batches(bucket, batch_format="pyarrow")
        .groupby(["event_type", "hour_bucket"])
        .aggregate(Count(alias_name="n_events"), Sum("value", alias_name="sum_value"))
        .sort(["event_type", "hour_bucket"])
    )
    return out.map_batches(
        lambda t: t.set_column(
            t.schema.get_field_index("sum_value"), "sum_value", pc_round_sql(t["sum_value"], 3)
        ),
        batch_format="pyarrow",
    )


def q_distinct_flags(sf_dir: str):
    """Distinct pairs (exact dedup on a composite key via groupby)."""
    from ray.data.aggregate import Count

    ds = _rd().read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_returnflag", "l_linestatus"]
    )
    return (
        ds.groupby(["l_returnflag", "l_linestatus"])
        .aggregate(Count(alias_name="n"))
        .sort(["l_returnflag", "l_linestatus"])
    )


# ---------------------------------------------------------------------------
# joins
# ---------------------------------------------------------------------------


def q_region_customer_counts(sf_dir: str):
    """Broadcast hash join: region ⋈ nation (driver-side, tiny) broadcast
    into a map_batches over customer (the large side never shuffles)."""
    import pyarrow.parquet as pq
    from ray.data.aggregate import Count

    nation = pq.read_table(f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_regionkey"])
    region = pq.read_table(f"{sf_dir}/region.parquet", columns=["r_regionkey", "r_name"])
    rmap = dict(zip(region["r_regionkey"].to_pylist(), region["r_name"].to_pylist()))
    # aligned arrays for the vectorized dictionary join (pc.index_in/take
    # replaces the round-1 per-row python dict lookup)
    nation_keys = nation["n_nationkey"].combine_chunks()
    nation_region_names = pa.array(
        [rmap[rk] for rk in nation["n_regionkey"].to_pylist()], type=pa.string()
    )

    ds = _rd().read_parquet(f"{sf_dir}/customer.parquet", columns=["c_nationkey"])

    def attach(t: pa.Table) -> pa.Table:
        idx = pc.index_in(t["c_nationkey"], value_set=nation_keys)
        names = pc.take(nation_region_names, idx)
        return pa.Table.from_arrays([names], names=["region_name"])

    return (
        ds.map_batches(attach, batch_format="pyarrow")
        .groupby("region_name")
        .aggregate(Count(alias_name="n_customers"))
        .sort("region_name")
    )


def q_customer_order_join(sf_dir: str):
    """Partitioned hash join (both sides large): customer ⋈ orders on
    custkey, then revenue per market segment."""
    from ray.data.aggregate import Count, Sum

    cust = _rd().read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    )
    orders = _rd().read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    )
    joined = orders.join(
        cust,
        join_type="inner",
        num_partitions=8,
        on=("o_custkey",),
        right_on=("c_custkey",),
    )
    out = (
        joined.groupby("c_mktsegment")
        .aggregate(
            Count(alias_name="n_orders"),
            Sum("o_totalprice", alias_name="total_price"),
        )
        .sort("c_mktsegment")
    )
    return out.map_batches(
        lambda t: t.set_column(
            t.schema.get_field_index("total_price"), "total_price",
            pc_round_sql(t["total_price"], 2),
        ),
        batch_format="pyarrow",
    )


def q_part_semi_join(sf_dir: str):
    """Broadcast semi-join: lineitems whose part is BRASS-ish; counts by
    brand.  Small key set broadcast as a python set inside map_batches."""
    import pyarrow.parquet as pq
    from ray.data.aggregate import Count

    part = pq.read_table(f"{sf_dir}/part.parquet", columns=["p_partkey", "p_type", "p_brand"])
    mask = pc.match_substring(part["p_type"], "PROMO")
    keep = part.filter(mask)
    part_keys = keep["p_partkey"].combine_chunks()
    part_brands = keep["p_brand"].combine_chunks()

    ds = _rd().read_parquet(f"{sf_dir}/lineitem.parquet", columns=["l_partkey"])

    def attach(t: pa.Table) -> pa.Table:
        idx = pc.index_in(t["l_partkey"], value_set=part_keys)
        brands = pc.take(part_brands, idx)  # null where no match (anti rows)
        tbl = pa.Table.from_arrays([brands], names=["p_brand"])
        return tbl.filter(pc.is_valid(tbl["p_brand"]))

    return (
        ds.map_batches(attach, batch_format="pyarrow")
        .groupby("p_brand")
        .aggregate(Count(alias_name="n_items"))
        .sort("p_brand")
    )


def q_supplier_nation_balance(sf_dir: str):
    """Broadcast dim join + avg: supplier acctbal by nation name."""
    import pyarrow.parquet as pq
    from ray.data.aggregate import Count, Mean

    nation = pq.read_table(f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"])
    nation_keys = nation["n_nationkey"].combine_chunks()
    nation_names = nation["n_name"].combine_chunks()

    ds = _rd().read_parquet(f"{sf_dir}/supplier.parquet", columns=["s_nationkey", "s_acctbal"])

    def attach(t: pa.Table) -> pa.Table:
        names = nation_names.take(pc.index_in(t["s_nationkey"], nation_keys))
        return pa.Table.from_arrays([names, t["s_acctbal"]], names=["n_name", "s_acctbal"])

    out = (
        ds.map_batches(attach, batch_format="pyarrow")
        .groupby("n_name")
        .aggregate(Mean("s_acctbal", alias_name="avg_balance"), Count(alias_name="n_suppliers"))
        .sort("n_name")
    )
    return out.map_batches(
        lambda t: t.set_column(
            t.schema.get_field_index("avg_balance"), "avg_balance",
            pc_round_sql(t["avg_balance"], 2),
        ),
        batch_format="pyarrow",
    )


def q_part_size_hist(sf_dir: str):
    """Histogram: part count by size bucket (size // 10)."""
    from ray.data.aggregate import Count

    ds = _rd().read_parquet(f"{sf_dir}/part.parquet", columns=["p_size"])

    def bucket(t: pa.Table) -> pa.Table:
        b = pc.cast(pc.floor(pc.divide(pc.cast(t["p_size"], pa.float64()), 10.0)), pa.int64())
        return pa.Table.from_arrays([b], names=["size_bucket"])

    return (
        ds.map_batches(bucket, batch_format="pyarrow")
        .groupby("size_bucket")
        .aggregate(Count(alias_name="n_parts"))
        .sort("size_bucket")
    )


def q_customer_running_total(sf_dir: str):
    """Per-customer running order total (window function): partition by
    custkey, sort by (date, orderkey), cumulative sum per group.

    One Ray group per customer is pathological (per-tiny-group task
    overhead); customers hash into ~P coarse partitions and the cumsum
    runs as ONE vectorized pandas groupby-cumsum per partition."""
    import pandas as pd

    from .context import shuffle_partitions

    nparts = shuffle_partitions()

    ds = _rd().read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderkey", "o_orderdate", "o_totalprice"]
    )

    def running(t: pa.Table) -> pd.DataFrame:
        g = t.to_pandas().sort_values(["o_custkey", "o_orderdate", "o_orderkey"])
        out = pd.DataFrame(
            {
                "o_custkey": g["o_custkey"].astype("int64"),
                "o_orderkey": g["o_orderkey"].astype("int64"),
                "running_total": g.groupby("o_custkey", sort=False)[
                    "o_totalprice"
                ].cumsum(),
            }
        )
        from kazu_ray.functions.rounding import round_half_away

        out["running_total"] = round_half_away(out["running_total"].to_numpy(), 2)
        return out

    return hash_reduce(ds, ["o_custkey"], running, nparts).sort(
        ["o_custkey", "o_orderkey"]
    )


def q_orders_rank_per_group(sf_dir: str, k: int = 3):
    """Per-group top-k with rank (ROW_NUMBER window analogue): the k
    most expensive orders per order priority, ranked.

    Scale design: per-BATCH partial top-k per group (each batch reduces
    to at most |groups| x k rows before anything crosses the exchange),
    then a groups-bounded merge re-ranks the partials — the per-group
    generalization of the orders_topk global pattern; no global sort,
    no corpus-sized group materialization."""
    import pandas as pd

    ds = _rd().read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderpriority", "o_orderkey", "o_totalprice"],
    )

    def partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df = (
            df.sort_values(
                ["o_orderpriority", "o_totalprice", "o_orderkey"],
                ascending=[True, False, True],
            )
            .groupby("o_orderpriority", sort=False)
            .head(k)
        )
        # strip pandas metadata: unhashable dicts break Ray's
        # schema-dedup fast path (harmless but noisy)
        return pa.Table.from_pandas(df, preserve_index=False).replace_schema_metadata(None)

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["o_totalprice", "o_orderkey"], ascending=[False, True]
        ).head(k)
        g = g.reset_index(drop=True)
        g["rank"] = (g.index + 1).astype("int64")
        return g[["o_orderpriority", "rank", "o_orderkey", "o_totalprice"]]

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("o_orderpriority")
        .map_groups(merge, batch_format="pandas")
        .sort(["o_orderpriority", "rank"])
    )


def _partial_order_log(t):
    """Deterministic sparse feed: keep every 5th order (vectorized) —
    sparse enough that some customers lose every order, making the
    left-only null direction real on this synthetic corpus."""
    import numpy as np
    import pyarrow as pa

    ok = t.column("o_orderkey").to_numpy(zero_copy_only=False) % 5 == 0
    return t.filter(pa.array(ok)).drop_columns(["o_orderkey"])


def q_full_outer_join(sf_dir: str):
    """Partition-wise FULL OUTER join (kazu_ray/joins.py hash_join with
    join_type 'full outer'): non-negative-balance customers against
    per-customer aggregates of a SPARSE order log (o_orderkey % 5 == 0
    — a deterministic stand-in for an incomplete feed; this synthetic
    corpus assigns every customer at least one order, so the partial
    log is what makes the left-only direction real).  Both null
    directions then occur: customers whose every order fell out of the
    log carry null order columns, and negative-balance customers WITH
    logged orders surface as right-only rows with a null acctbal.
    Exact frame parity vs DuckDB's FULL OUTER JOIN is the
    fo_join_parity row of approx_metrics."""
    import pyarrow as pa
    import pyarrow.compute as pc
    from ray.data.aggregate import Count, Sum

    from .joins import hash_join

    cust = (
        _rd()
        .read_parquet(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_acctbal"])
        .filter(expr="c_acctbal >= 0")
    )
    orders = (
        _rd()
        .read_parquet(
            f"{sf_dir}/orders.parquet",
            columns=["o_orderkey", "o_custkey", "o_totalprice"],
        )
        .map_batches(_partial_order_log, batch_format="pyarrow")
        .groupby("o_custkey")
        .aggregate(
            Count(alias_name="n_orders"),
            Sum("o_totalprice", alias_name="total_price"),
        )
    )
    out = hash_join(
        cust,
        orders,
        left_on="c_custkey",
        right_on="o_custkey",
        how="full_outer",
        num_partitions=16,
        left_schema=pa.schema(
            [("c_custkey", pa.int64()), ("c_acctbal", pa.float64())]
        ),
        right_schema=pa.schema(
            [
                ("o_custkey", pa.int64()),
                ("n_orders", pa.int64()),
                ("total_price", pa.float64()),
            ]
        ),
    )
    return out.map_batches(
        lambda t: t.set_column(
            t.schema.get_field_index("total_price"),
            "total_price",
            pc_round_sql(t["total_price"], 2),
        ),
        batch_format="pyarrow",
    ).sort("c_custkey")


def full_outer_join_oracle_sql() -> str:
    return """
        WITH c AS (
          SELECT c_custkey, c_acctbal FROM customer WHERE c_acctbal >= 0
        ),
        o AS (
          SELECT o_custkey,
                 CAST(COUNT(*) AS BIGINT) AS n_orders,
                 ROUND(SUM(o_totalprice), 2) AS total_price
          FROM orders WHERE o_orderkey % 5 = 0 GROUP BY o_custkey
        )
        SELECT COALESCE(c.c_custkey, o.o_custkey) AS c_custkey,
               c.c_acctbal, o.n_orders, o.total_price
        FROM c FULL OUTER JOIN o ON c.c_custkey = o.o_custkey
        ORDER BY c_custkey
    """


# ---------------------------------------------------------------------------
# grouping sets / pivot
# ---------------------------------------------------------------------------


def q_lineitem_rollup(sf_dir: str):
    """GROUP BY ROLLUP(l_returnflag, l_linestatus) in one corpus pass:
    each batch emits partial rows for ALL THREE grouping sets (detail,
    per-returnflag, grand total) with the rolled-up level marked by the
    sentinel 'ALL' (the input columns are NULL-free, so the sentinel is
    unambiguous and sidesteps NULL sort-order divergence between
    engines), then ONE small groupby merges the partials — the
    combiner-before-shuffle shape, so the exchange carries
    O(groups x 3) rows regardless of corpus size.

    Oracle: lineitem_rollup in __ray_entry__.oracle_sql (exact ROLLUP
    with COALESCE to the same sentinel; sums of integer-valued
    quantities are exact in float64, so partial-order-independent)."""
    from ray.data.aggregate import Sum

    ds = _rd().read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity"],
    )

    def partials(t: pa.Table) -> pa.Table:
        import polars as pl

        df = pl.from_arrow(t)
        sets = [
            df.group_by("l_returnflag", "l_linestatus").agg(
                qty_p=pl.col("l_quantity").sum(),
                n_p=pl.len().cast(pl.Int64),
            ),
            df.group_by("l_returnflag").agg(
                qty_p=pl.col("l_quantity").sum(),
                n_p=pl.len().cast(pl.Int64),
            ).with_columns(l_linestatus=pl.lit("ALL")),
            df.select(
                qty_p=pl.col("l_quantity").sum(),
                n_p=pl.len().cast(pl.Int64),
            ).with_columns(
                l_returnflag=pl.lit("ALL"), l_linestatus=pl.lit("ALL")
            ),
        ]
        out = pl.concat(
            [s.select("l_returnflag", "l_linestatus", "qty_p", "n_p") for s in sets]
        )
        return out.to_arrow()

    out = (
        ds.map_batches(partials, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("qty_p", alias_name="sum_qty"),
            Sum("n_p", alias_name="n_rows"),
        )
        .sort(["l_returnflag", "l_linestatus"])
    )

    def final(t: pa.Table) -> pa.Table:
        t = t.set_column(
            t.schema.get_field_index("sum_qty"), "sum_qty",
            pc_round_sql(t["sum_qty"], 2),
        )
        return t.set_column(
            t.schema.get_field_index("n_rows"), "n_rows",
            t["n_rows"].cast(pa.int64()),
        )

    return out.map_batches(final, batch_format="pyarrow")


def lineitem_rollup_oracle_sql() -> str:
    return """
        SELECT COALESCE(l_returnflag, 'ALL') AS l_returnflag,
               COALESCE(l_linestatus, 'ALL') AS l_linestatus,
               ROUND(SUM(l_quantity), 2) AS sum_qty,
               CAST(COUNT(*) AS BIGINT) AS n_rows
        FROM lineitem
        GROUP BY ROLLUP(l_returnflag, l_linestatus)
        ORDER BY l_returnflag, l_linestatus
    """


def q_lineitem_cube(sf_dir: str):
    """GROUP BY CUBE(l_returnflag, l_linestatus): the full 2^k lattice
    (detail, each single-column margin, grand total) in one corpus
    pass — q_lineitem_rollup's combiner shape with the fourth grouping
    set added, so the exchange carries O(groups x 4) partial rows
    regardless of corpus size.  Exact CUBE SQL parity."""
    from ray.data.aggregate import Sum

    ds = _rd().read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity"],
    )

    def partials(t: pa.Table) -> pa.Table:
        import polars as pl

        df = pl.from_arrow(t)
        agg = dict(qty_p=pl.col("l_quantity").sum(), n_p=pl.len().cast(pl.Int64))
        sets = [
            df.group_by("l_returnflag", "l_linestatus").agg(**agg),
            df.group_by("l_returnflag").agg(**agg).with_columns(
                l_linestatus=pl.lit("ALL")
            ),
            df.group_by("l_linestatus").agg(**agg).with_columns(
                l_returnflag=pl.lit("ALL")
            ),
            df.select(**agg).with_columns(
                l_returnflag=pl.lit("ALL"), l_linestatus=pl.lit("ALL")
            ),
        ]
        out = pl.concat(
            [s.select("l_returnflag", "l_linestatus", "qty_p", "n_p") for s in sets]
        )
        return out.to_arrow()

    out = (
        ds.map_batches(partials, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("qty_p", alias_name="sum_qty"),
            Sum("n_p", alias_name="n_rows"),
        )
        .sort(["l_returnflag", "l_linestatus"])
    )

    def final(t: pa.Table) -> pa.Table:
        t = t.set_column(
            t.schema.get_field_index("sum_qty"), "sum_qty",
            pc_round_sql(t["sum_qty"], 2),
        )
        return t.set_column(
            t.schema.get_field_index("n_rows"), "n_rows",
            t["n_rows"].cast(pa.int64()),
        )

    return out.map_batches(final, batch_format="pyarrow")


def lineitem_cube_oracle_sql() -> str:
    return """
        SELECT COALESCE(l_returnflag, 'ALL') AS l_returnflag,
               COALESCE(l_linestatus, 'ALL') AS l_linestatus,
               ROUND(SUM(l_quantity), 2) AS sum_qty,
               CAST(COUNT(*) AS BIGINT) AS n_rows
        FROM lineitem
        GROUP BY CUBE(l_returnflag, l_linestatus)
        ORDER BY l_returnflag, l_linestatus
    """


_EVENT_TYPES = ("click", "error", "purchase", "signup", "view")


def q_events_pivot(sf_dir: str):
    """Pivot: per-user event counts widened to one column per event
    type + a total.  The pivot happens INSIDE each batch (polars
    group_by + conditional sums -> one partial row per user per batch),
    then one groupby sums partials — the wide shuffle carries one row
    per (user, batch), never one per event.  Unknown future event
    types would need a schema evolution pass; the type list is an
    explicit operator parameter by design (same contract as SQL PIVOT
    ... IN (...)).

    Oracle: events_pivot in __ray_entry__.oracle_sql (COUNT(*) FILTER
    per type — the canonical SQL pivot encoding)."""
    from ray.data.aggregate import Sum

    ds = _rd().read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
    )

    def partials(t: pa.Table) -> pa.Table:
        import polars as pl

        df = pl.from_arrow(t)
        out = df.group_by("user_id").agg(
            *[
                (pl.col("event_type") == et).sum().cast(pl.Int64).alias(f"n_{et}")
                for et in _EVENT_TYPES
            ],
            n_total=pl.len().cast(pl.Int64),
        )
        return out.to_arrow()

    return (
        ds.map_batches(partials, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(
            *[Sum(f"n_{et}", alias_name=f"n_{et}") for et in _EVENT_TYPES],
            Sum("n_total", alias_name="n_total"),
        )
        .sort("user_id")
        .map_batches(
            lambda t: t.cast(
                pa.schema(
                    [("user_id", pa.int64())]
                    + [(f"n_{et}", pa.int64()) for et in _EVENT_TYPES]
                    + [("n_total", pa.int64())]
                )
            ),
            batch_format="pyarrow",
        )
    )


def events_pivot_oracle_sql() -> str:
    per_type = ",\n               ".join(
        f"CAST(COUNT(*) FILTER (event_type = '{et}') AS BIGINT) AS n_{et}"
        for et in _EVENT_TYPES
    )
    return f"""
        SELECT user_id,
               {per_type},
               CAST(COUNT(*) AS BIGINT) AS n_total
        FROM events
        GROUP BY user_id
        ORDER BY user_id
    """
