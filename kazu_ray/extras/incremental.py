"""Incremental aggregate maintenance — delta-update a persisted
groupby state instead of rescanning the corpus (the view-maintenance
algebra of Griffin & Libkin 1995, materialized in every production
warehouse as "incremental refresh").

The maintained state here is the corpus token-frequency table.  Given
a base state and a (added docs, removed docs) delta, the new state is

    state' = state  ⊎  agg(added)  ⊎  (- agg(removed))

computed as ONE signed-count union + groupby-sum, then dropping
zero-count rows — exact for any additive aggregate over integers (no
float accumulation seam).  At 100 TB this is the difference between
touching the whole corpus and touching the day's delta: the three
aggregate inputs each use the same combiner-first token groupby the
full scan would, but the two delta scans are delta-sized, and the
state-side input is the (bounded, vocabulary-sized) state table
itself — not the corpus.

Extends extras/snapshot.py (which DETECTS the delta between two
corpus snapshots); this consumes such a delta to maintain a
downstream aggregate without recomputation.

Exact SQL oracle: the final state must equal a DIRECT recompute over
the post-delta document set — including the disappearance of tokens
whose count reaches zero (the oracle simply has no row; the signed
merge must drop it, not keep a zero).

Reference scope note: KAZU rebuilds ontology artifacts from scratch
per release (kazu_disk_cache); incremental maintenance is the
training-data-scale upgrade (SURVEY.md §2l).
"""

from __future__ import annotations

import pyarrow as pa

_TOKEN_RE = r"[a-z0-9]+"


def token_counts(docs_ds, sign: int = 1):
    """(token, cnt) with cnt multiplied by ``sign`` — the combiner
    shape: in-block counts, one token-keyed groupby-sum."""
    import polars as pl
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        out = (
            pl.from_arrow(t.select(["text"]))
            .with_columns(
                tok=pl.col("text").str.to_lowercase().str.extract_all(_TOKEN_RE)
            )
            .explode("tok", empty_as_null=True)
            .drop_nulls("tok")
            .group_by("tok")
            .len()
            .with_columns(cnt=(pl.col("len").cast(pl.Int64) * sign))
            .select("tok", "cnt")
        )
        return out.to_arrow().cast(
            pa.schema([("tok", pa.string()), ("cnt", pa.int64())])
        )

    return (
        docs_ds.map_batches(partial, batch_format="pyarrow")
        .groupby("tok")
        .aggregate(Sum("cnt", alias_name="cnt"))
    )


def apply_delta(state_ds, added_ds, removed_ds):
    """state' = state + agg(added) - agg(removed), dropping zero-count
    tokens.  One signed union + groupby-sum; never rescans the base
    corpus."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    def as_arrow(ds):
        # normalize block type + schema: union requires homogeneous
        # blocks, and groupby sums must land in int64
        return ds.map_batches(
            lambda t: t.cast(
                pa.schema([("tok", pa.string()), ("cnt", pa.int64())])
            ),
            batch_format="pyarrow",
        )

    plus = as_arrow(token_counts(added_ds, sign=1))
    minus = as_arrow(token_counts(removed_ds, sign=-1))
    merged = (
        as_arrow(state_ds)
        .union(plus)
        .union(minus)
        .groupby("tok")
        .aggregate(Sum("cnt", alias_name="cnt"))
    )

    def drop_zero(t: pa.Table) -> pa.Table:
        t = t.cast(pa.schema([("tok", pa.string()), ("cnt", pa.int64())]))
        return t.filter(pc.not_equal(t.column("cnt"), 0))

    return merged.map_batches(drop_zero, batch_format="pyarrow")


def q_incremental_agg(sf_dir: str):
    """Query surface: maintain the token-count state through a
    deterministic doc_id-keyed delta (base = doc_id % 10 != 0; the
    delta removes base docs with doc_id % 7 == 0 and adds the held-out
    doc_id % 10 == 0 docs).  The result must equal a direct recompute
    over the final doc set — the SQL oracle."""
    import pyarrow.compute as pc
    import ray.data as rd

    def read(pred):
        def f(t: pa.Table) -> pa.Table:
            d = t.column("doc_id")
            return t.filter(pred(d))

        return rd.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
        ).map_batches(f, batch_format="pyarrow")

    mod = lambda d, k: pc.subtract(d, pc.multiply(pc.divide(d, k), k))
    base = read(lambda d: pc.not_equal(mod(d, 10), 0))
    removed = read(
        lambda d: pc.and_(
            pc.not_equal(mod(d, 10), 0), pc.equal(mod(d, 7), 0)
        )
    )
    added = read(lambda d: pc.equal(mod(d, 10), 0))

    state0 = token_counts(base).map_batches(
        lambda t: t.cast(pa.schema([("tok", pa.string()), ("cnt", pa.int64())])),
        batch_format="pyarrow",
    )
    return apply_delta(state0, added, removed).sort("tok")


def incremental_agg_oracle_sql() -> str:
    """Direct recompute over the post-delta document set."""
    return f"""
        WITH final_docs AS (
            SELECT doc_id, text FROM documents
            WHERE (doc_id % 10 != 0 AND doc_id % 7 != 0)
               OR doc_id % 10 = 0
        )
        SELECT tok, CAST(COUNT(*) AS BIGINT) AS cnt
        FROM (
            SELECT unnest(regexp_extract_all(lower(text), '{_TOKEN_RE}')) AS tok
            FROM final_docs
        )
        GROUP BY tok
        ORDER BY tok
    """
