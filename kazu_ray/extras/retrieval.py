"""Distributed lexical retrieval: inverted index + Okapi BM25 top-k.

Training-data pipelines use lexical retrieval for quality-targeted
selection (retrieve documents similar to a trusted seed set — the
GPT-3-style "quality classifier" counterpart for sparse features), for
benchmark-leak audits, and as the exact complement of the dense-ANN
family in extras/similarity.py.  The reference engine has no retrieval
operator; this is greenfield Ray-Data-first design.

Two operators:

- :func:`build_inverted_index` — the classic token-partitioned
  posting-list build: per-batch DISTINCT (doc_id, token) projection
  (each document lives in exactly one batch, so batch-local dedup IS
  global dedup — no combiner exchange needed), coarse ``hash(token)``
  exchange sized by :func:`kazu_ray.context.shuffle_partitions`, then a
  vectorized per-partition list aggregation.  Exchange volume is the
  number of distinct doc-token pairs, never token occurrences.  At
  corpus scale, posting lists of stopword-frequency tokens are
  corpus-sized; ``max_df_ratio`` prunes tokens appearing in more than
  that fraction of documents (measured against an exact document count)
  — the standard stopword cut that also bounds the largest list.

- :func:`bm25_topk` — Okapi BM25 (k1=1.2, b=0.75) scores of every
  document against a SMALL query set.  Pass 1 streams one bounded
  partial-stats pass (per-term document frequencies restricted to the
  query vocabulary + document count/length totals: ≤ |vocab|+1 rows per
  block); pass 2 broadcasts the resulting idf table inside the batch
  closure and emits a per-batch partial top-k per query, merged by a
  query-bounded ``groupby(query_id)`` — the same partial-top-k
  discipline as relational.q_orders_topk.  Nothing corpus-sized ever
  leaves the scan.

Cross-engine: tokenization is the repo-wide ``[a-z0-9]+`` over
lowercased text, so DuckDB reproduces both operators exactly
(tests/test_retrieval.py — posting lists bit-equal, BM25 scores equal
to float64 round-off under the identical formula).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..exchange import hash_reduce

_WORD_RE = r"[a-z0-9]+"

K1 = 1.2
B = 0.75

_PAIR_SCHEMA = pa.schema(
    [("token", pa.string()), ("doc_id", pa.int64())]
)

INDEX_SCHEMA = pa.schema(
    [
        ("token", pa.string()),
        ("df", pa.int64()),
        ("doc_ids", pa.list_(pa.int64())),
    ]
)

BM25_SCHEMA = pa.schema(
    [
        ("query_id", pa.int64()),
        ("doc_id", pa.int64()),
        ("score", pa.float64()),
        ("rank", pa.int64()),
    ]
)


def _doc_token_pairs(batch: pa.Table) -> pa.Table:
    """Distinct (token, doc_id) pairs of one batch."""
    import polars as pl

    out = (
        pl.from_arrow(batch.select(["doc_id", "text"]))
        .with_columns(
            token=pl.col("text").str.to_lowercase().str.extract_all(_WORD_RE)
        )
        .select("doc_id", "token")
        .explode("token", empty_as_null=True)
        .drop_nulls("token")
        .unique()
        .select("token", "doc_id")
    )
    return out.to_arrow().cast(_PAIR_SCHEMA)


def _make_postings(max_df: int | None):
    """Vectorized posting-list aggregation inside one token partition (the partition holds EVERY pair of each of its tokens, so
    df and the list are exact and complete)."""

    def agg(group):
        import polars as pl

        out = (
            pl.from_arrow(group.select(["token", "doc_id"]))
            .group_by("token")
            .agg(
                df=pl.len().cast(pl.Int64),
                doc_ids=pl.col("doc_id").sort(),
            )
        )
        if max_df is not None:
            out = out.filter(pl.col("df") <= max_df)
        # arrow out (NOT pandas): a pandas object column of lists round-
        # trips through Ray's tensor extension and loses the list type
        return out.select("token", "df", "doc_ids").to_arrow().cast(INDEX_SCHEMA)

    return agg


def build_inverted_index(
    docs_ds,
    num_partitions: int | None = None,
    max_df_ratio: float | None = None,
):
    """Dataset of (token, df, doc_ids sorted) posting rows, partitioned
    by token hash.  ``max_df_ratio`` drops tokens present in more than
    that fraction of documents (exact count pass, streamed)."""
    from ..context import shuffle_partitions

    nparts = num_partitions or shuffle_partitions()
    max_df = None
    if max_df_ratio is not None:
        max_df = int(max_df_ratio * docs_ds.count())
    pairs = docs_ds.map_batches(_doc_token_pairs, batch_format="pyarrow")
    return hash_reduce(pairs, ["token"], _make_postings(max_df), nparts)


def _corpus_stats(docs_ds, vocab: list[str]) -> tuple[int, float, dict[str, int]]:
    """One streamed pass → (n_docs, avgdl, df per query term).

    Each block contributes ≤ |vocab|+1 partial rows (term hit-counts
    plus one (n_docs, total_len) row), so the driver-side sum is
    bounded by |vocab| × n_blocks — never corpus-sized."""
    vocab_set = set(vocab)

    def partial(batch: pa.Table) -> pa.Table:
        import polars as pl

        df = pl.from_arrow(batch.select(["text"])).with_columns(
            ws=pl.col("text").str.to_lowercase().str.extract_all(_WORD_RE)
        )
        dls = df.select(pl.col("ws").list.len().cast(pl.Int64).alias("dl"))
        terms = (
            df.with_row_index("rid")
            .select("rid", "ws")
            .explode("ws", empty_as_null=True)
            .drop_nulls("ws")
            .filter(pl.col("ws").is_in(list(vocab_set)))
            .unique()
            .group_by("ws")
            .len()
        )
        toks = terms["ws"].to_list() + ["\x00total"]
        vals = terms["len"].cast(pl.Int64).to_list() + [int(dls["dl"].sum())]
        extra = [0] * len(terms) + [len(df)]
        return pa.table(
            {
                "term": pa.array(toks, pa.string()),
                "v": pa.array(vals, pa.int64()),
                "n": pa.array(extra, pa.int64()),
            }
        )

    rows = docs_ds.map_batches(partial, batch_format="pyarrow").take_all()
    n_docs = sum(r["n"] for r in rows)
    total_len = sum(r["v"] for r in rows if r["term"] == "\x00total")
    dfs: dict[str, int] = {}
    for r in rows:
        if r["term"] != "\x00total":
            dfs[r["term"]] = dfs.get(r["term"], 0) + r["v"]
    avgdl = total_len / n_docs if n_docs else 0.0
    return n_docs, avgdl, dfs


def bm25_topk(docs_ds, queries: list[str], k: int = 10):
    """Global top-k documents per query by Okapi BM25.

    ``queries`` is a small in-memory list (query_id = list position);
    idf uses the standard Okapi form ln((N - df + 0.5)/(df + 0.5) + 1).
    Documents with score 0 (no query term) are never emitted."""
    import re as _re

    q_terms = [
        sorted(set(_re.findall(_WORD_RE, q.lower()))) for q in queries
    ]
    vocab = sorted({t for ts in q_terms for t in ts})
    if not vocab:
        raise ValueError("bm25_topk: queries contain no [a-z0-9] tokens")
    n_docs, avgdl, dfs = _corpus_stats(docs_ds, vocab)
    idf = {
        t: float(np.log((n_docs - dfs.get(t, 0) + 0.5) / (dfs.get(t, 0) + 0.5) + 1.0))
        for t in vocab
    }
    # broadcast table: (query_id, token, idf) — tiny, rides the closure
    q_rows = [
        (qi, t, idf[t]) for qi, ts in enumerate(q_terms) for t in ts
    ]

    def score_batch(batch: pa.Table) -> pa.Table:
        import polars as pl

        qdf = pl.DataFrame(
            {
                "token": [r[1] for r in q_rows],
                "query_id": [r[0] for r in q_rows],
                "idf": [r[2] for r in q_rows],
            }
        )
        docs = pl.from_arrow(batch.select(["doc_id", "text"])).with_columns(
            ws=pl.col("text").str.to_lowercase().str.extract_all(_WORD_RE)
        )
        dl = docs.select("doc_id", pl.col("ws").list.len().cast(pl.Float64).alias("dl"))
        tf = (
            docs.select("doc_id", "ws")
            .explode("ws", empty_as_null=True)
            .rename({"ws": "token"})
            .filter(pl.col("token").is_in(vocab))
            .group_by("doc_id", "token")
            .len(name="tf")
        )
        scored = (
            tf.join(qdf, on="token")
            .join(dl, on="doc_id")
            .with_columns(
                s=pl.col("idf")
                * (pl.col("tf") * (K1 + 1))
                / (pl.col("tf") + K1 * (1 - B + B * pl.col("dl") / avgdl))
            )
            .group_by("query_id", "doc_id")
            .agg(score=pl.col("s").sum())
            # per-batch partial top-k (ties: lowest doc_id wins, both engines)
            .sort(["query_id", "score", "doc_id"], descending=[False, True, False])
            .group_by("query_id", maintain_order=True)
            .head(k)
        )
        return scored.to_arrow().cast(
            pa.schema(
                [("query_id", pa.int64()), ("doc_id", pa.int64()), ("score", pa.float64())]
            )
        )

    def merge(group):
        import polars as pl

        out = (
            pl.from_pandas(group[["query_id", "doc_id", "score"]])
            .sort(["score", "doc_id"], descending=[True, False])
            .head(k)
            .with_columns(rank=pl.int_range(1, pl.len() + 1, dtype=pl.Int64))
        )
        return out.select("query_id", "doc_id", "score", "rank").to_pandas()

    out = (
        docs_ds.map_batches(score_batch, batch_format="pyarrow")
        .groupby("query_id")
        .map_groups(merge, batch_format="pandas")
    )
    return out.map_batches(
        lambda b: b.select(BM25_SCHEMA.names).cast(BM25_SCHEMA),
        batch_format="pyarrow",
    )


def bm25_duckdb(con, queries: list[str], k: int):
    """Ground-truth BM25 top-k computed by DuckDB under the identical
    Okapi formula and tokenizer — the shared cross-engine reference used
    by tests/test_retrieval.py and the driver-recorded retrieval_parity
    gate (extras/metrics.py).  Returns (query_id, doc_id, score, rank)
    tuples; assumes a ``documents`` view with (doc_id, text)."""
    import re

    q_rows = []
    for qi, q in enumerate(queries):
        for t in sorted(set(re.findall(_WORD_RE, q.lower()))):
            q_rows.append(f"({qi}, '{t}')")
    tok = f"regexp_extract_all(lower(text), '{_WORD_RE}')"
    return con.execute(
        f"""
        WITH toks AS (SELECT doc_id, {tok} AS ws FROM documents),
        stats AS (SELECT COUNT(*) AS n,
                         SUM(len(ws))::DOUBLE / COUNT(*) AS avgdl FROM toks),
        q(query_id, token) AS (VALUES {', '.join(q_rows)}),
        tf AS (SELECT doc_id, token, COUNT(*)::DOUBLE AS tf FROM (
                 SELECT doc_id, unnest(ws) AS token FROM toks)
               WHERE token IN (SELECT token FROM q) GROUP BY 1, 2),
        dl AS (SELECT doc_id, len(ws)::DOUBLE AS dl FROM toks),
        dfv AS (SELECT token, COUNT(*) AS df FROM tf GROUP BY 1),
        scored AS (
          SELECT q.query_id, tf.doc_id,
                 SUM(ln((n - df + 0.5) / (df + 0.5) + 1.0)
                     * (tf * ({K1} + 1)) / (tf + {K1} * (1 - {B} + {B} * dl / avgdl))
                 ) AS score
          FROM q JOIN tf USING (token) JOIN dl USING (doc_id)
               JOIN dfv USING (token) CROSS JOIN stats
          GROUP BY 1, 2)
        SELECT query_id, doc_id, score, rank FROM (
          SELECT *, ROW_NUMBER() OVER (
            PARTITION BY query_id ORDER BY score DESC, doc_id) AS rank
          FROM scored)
        WHERE rank <= {k} ORDER BY query_id, rank
        """
    ).fetchall()
