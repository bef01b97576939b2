"""Frequent itemset mining — SON two-phase frequent token pairs
(Savasere, Omiecinski & Navathe 1995; the canonical MapReduce
formulation is Leskovec/Rajaraman/Ullman, *Mining of Massive
Datasets* §6.4).

Transactions are the DISTINCT lowercase ``[a-z0-9]+`` tokens of each
document; the operator returns every token pair co-occurring in at
least ``ceil(s_frac * n_docs)`` documents, with its exact support.

SON makes this exact in two bounded passes with NO all-to-all over
raw data:

* **Phase 1 (candidate generation)** — each block counts its own
  pairs locally (a vectorised polars within-doc self-join) and emits
  the DISTINCT pairs meeting the same support FRACTION locally.  SON's
  theorem: a globally frequent itemset is frequent in at least one
  partition at the same fraction, so the union of local candidates is
  a superset of the answer — no false negatives by construction.
  Only distinct candidate PAIRS (two strings) leave a block, never
  per-doc rows.
* **Phase 2 (exact counting)** — the deduped candidate set is
  broadcast (``ray.put`` once, read per actor); each block counts
  exact candidate occurrences (semi-join against the broadcast set)
  and ships one partial count row per (candidate, block) — a
  combiner-first exchange bounded by |candidates| x n_blocks, followed
  by a tiny groupby-sum and the final global threshold.

100-TB note: the exchange volume is support-bounded — a pair must be
locally frequent somewhere to ever cross the wire, so low-support
noise pairs (the quadratic tail) die inside their block.  The
candidate broadcast is the small side by the same argument.  Skewed
token distributions don't hot-spot: counting is per-block partial +
additive merge, never a per-key shuffle of raw pairs.

Exact SQL oracle (``frequent_pairs_oracle_sql``): DuckDB replays the
whole operator with a within-doc self-join — row-for-row, including
supports.  Registered as the ``frequent_pairs`` queries() entry.

Reference scope note: KAZU has no corpus-level co-occurrence mining;
this is part of the training-data operator family (SURVEY.md §2l).
"""

from __future__ import annotations

import math

import pyarrow as pa

_TOKEN_RE = r"[a-z0-9]+"
DEFAULT_S_FRAC = 0.3


def _doc_pairs(batch: pa.Table):
    """(doc_id, t1, t2) polars frame: all distinct-token pairs (t1 <
    t2) per document — vectorised within-doc self-join."""
    import polars as pl

    toks = (
        pl.from_arrow(batch.select(["doc_id", "text"]))
        .with_columns(tok=pl.col("text").str.to_lowercase().str.extract_all(_TOKEN_RE))
        .select("doc_id", "tok")
        .explode("tok", empty_as_null=True)
        .drop_nulls("tok")
        .unique()
    )
    return (
        toks.join(toks.rename({"tok": "t2"}), on="doc_id")
        .filter(pl.col("tok") < pl.col("t2"))
        .rename({"tok": "t1"})
        .select("doc_id", "t1", "t2")
    )


def frequent_pairs(docs_ds, s_frac: float = DEFAULT_S_FRAC):
    """docs (doc_id, text) -> (t1, t2, support) for every token pair
    with support >= ceil(s_frac * n_docs), exactly."""
    import ray

    n_docs = docs_ds.count()
    min_support = math.ceil(s_frac * n_docs)

    def local_candidates(batch: pa.Table) -> pa.Table:
        import polars as pl

        pairs = _doc_pairs(batch)
        n_local = batch.column("doc_id").to_pylist()
        local_thresh = math.ceil(s_frac * len(set(n_local)))
        out = (
            pairs.group_by("t1", "t2")
            .len()
            .filter(pl.col("len") >= max(1, local_thresh))
            .select("t1", "t2")
        )
        return out.to_arrow().cast(
            pa.schema([("t1", pa.string()), ("t2", pa.string())])
        )

    # dedupe candidates with a pair-keyed groupby (bounded: only
    # locally-frequent pairs exist here), then broadcast the small set
    cand_tbl = pa.concat_tables(
        docs_ds.map_batches(local_candidates, batch_format="pyarrow")
        .groupby(["t1", "t2"])
        .count()
        .select_columns(["t1", "t2"])
        .iter_batches(batch_format="pyarrow", batch_size=None)
    )
    cand_ref = ray.put(cand_tbl)

    class _CountCandidates:
        """Actor: exact per-block partial counts over the broadcast
        candidate set (fetched once in __init__)."""

        def __init__(self):
            import polars as pl

            self.cands = pl.from_arrow(ray.get(cand_ref))

        def __call__(self, batch: pa.Table) -> pa.Table:
            import polars as pl

            out = (
                _doc_pairs(batch)
                .join(self.cands, on=["t1", "t2"], how="semi")
                .group_by("t1", "t2")
                .len()
                .rename({"len": "cnt"})
                .with_columns(pl.col("cnt").cast(pl.Int64))
            )
            return out.to_arrow().cast(
                pa.schema(
                    [("t1", pa.string()), ("t2", pa.string()), ("cnt", pa.int64())]
                )
            )

    counted = (
        docs_ds.map_batches(_CountCandidates, batch_format="pyarrow",
                            concurrency=(1, 8))
        .groupby(["t1", "t2"])
        .sum("cnt")
    )

    def finalize(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        t = t.select(["t1", "t2", "sum(cnt)"]).rename_columns(
            ["t1", "t2", "support"]
        )
        t = t.filter(pc.greater_equal(t.column("support"), min_support))
        return t.cast(
            pa.schema(
                [("t1", pa.string()), ("t2", pa.string()), ("support", pa.int64())]
            )
        )

    return counted.map_batches(finalize, batch_format="pyarrow")


def q_frequent_pairs(sf_dir: str, s_frac: float = DEFAULT_S_FRAC):
    """Query surface: exact frequent token pairs over the documents
    corpus at the default support fraction, sorted."""
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return frequent_pairs(ds, s_frac).sort(["t1", "t2"])


def frequent_pairs_oracle_sql(s_frac: float = DEFAULT_S_FRAC) -> str:
    return f"""
        WITH toks AS (
            SELECT doc_id,
                   unnest(list_distinct(
                       regexp_extract_all(lower(text), '{_TOKEN_RE}')
                   )) AS tok
            FROM documents
        ),
        pairs AS (
            SELECT a.tok AS t1, b.tok AS t2,
                   CAST(COUNT(*) AS BIGINT) AS support
            FROM toks a
            JOIN toks b ON a.doc_id = b.doc_id AND a.tok < b.tok
            GROUP BY 1, 2
        )
        SELECT t1, t2, support
        FROM pairs
        WHERE support >= CEIL({s_frac} * (SELECT COUNT(*) FROM documents))
        ORDER BY t1, t2
    """
