"""Data Selection with Importance Resampling (DSIR).

Implements the published DSIR method (Xie et al. 2023, "Data Selection
for Language Models via Importance Resampling", NeurIPS) over a Ray
Data corpus: hashed-n-gram bag features (unigrams + bigrams hashed into
``n_buckets`` fixed buckets), a bucketed importance log-ratio
log p_target(b) - log p_raw(b) fitted from the corpus itself, per-doc
importance log-weights, and Gumbel-top-k resampling so the selected
subset is a without-replacement draw proportional to the importance
weights.

Scale story (no all-to-all on document data):

- FIT: per-batch (bucket, n) partials — the per-batch combiner caps
  each batch's contribution at ``n_buckets`` rows because the feature
  space is FIXED by construction (the paper's core trick) — then a
  ``hash(bucket)`` exchange and vectorized in-partition sums;
  the merged table is exactly <= n_buckets rows, independent of corpus
  size.  Both distributions (raw corpus, target subset) come from the
  SAME single streaming pass (target membership is a predicate).
- SCORE: the log-ratio vector (n_buckets float64, ~32 KB) is broadcast
  once via ``ray.put``; scoring is one embarrassingly parallel
  map_batches (per-actor memoized gram->bucket md5, numpy dot).
- SELECT: Gumbel keys are a pure function of (doc_id, score) — no RNG
  state — so selection is per-block top-k followed by a <= k x blocks
  driver merge, the same pattern as orders_topk (relational.py:90).

Every arithmetic step (md5 bucketing, Laplace smoothing, Gumbel keys)
is chosen to be exactly reproducible in DuckDB SQL; the
``dsir_parity`` gate in extras/metrics.py recomputes the full
fit+score+select pipeline in SQL and compares doc-level results.
"""

from __future__ import annotations

import hashlib
import math
import re

import numpy as np
import pyarrow as pa

from ..exchange import hash_reduce

_WORD_RE = r"[a-z0-9]+"
_WORD_RE_C = re.compile(_WORD_RE)
N_BUCKETS = 4096
ALPHA = 1.0  # Laplace smoothing, mirrored exactly in the SQL oracle
TARGET_MOD = 10  # doc_id % 10 == 0 is the "target domain" sample
GUMBEL_SALT = "dsir-v1:"


def _bucket(gram: str) -> int:
    return int(hashlib.md5(gram.encode()).hexdigest()[:8], 16) % N_BUCKETS


def _doc_buckets(tokens: list[str], memo: dict) -> dict[int, int]:
    """Hashed unigram+bigram counts for one document; ``memo`` caches
    gram->bucket across the batch (distinct grams hashed once)."""
    counts: dict[int, int] = {}
    prev = None
    for t in tokens:
        b = memo.get(t)
        if b is None:
            b = memo[t] = _bucket(t)
        counts[b] = counts.get(b, 0) + 1
        if prev is not None:
            g = prev + " " + t
            b2 = memo.get(g)
            if b2 is None:
                b2 = memo[g] = _bucket(g)
            counts[b2] = counts.get(b2, 0) + 1
        prev = t
    return counts


def _fit_partials(batch: pa.Table) -> pa.Table:
    """Per-batch combiner: (bucket, n_raw, n_target) rows, <= N_BUCKETS
    per batch by construction."""
    import polars as pl

    df = pl.from_arrow(batch.select(["doc_id", "text"])).with_columns(
        ws=pl.col("text").str.to_lowercase().str.extract_all(_WORD_RE)
    )
    raw = np.zeros(N_BUCKETS, dtype=np.int64)
    tgt = np.zeros(N_BUCKETS, dtype=np.int64)
    memo: dict = {}
    for doc_id, toks in zip(df["doc_id"], df["ws"]):
        counts = _doc_buckets(list(toks) if toks is not None else [], memo)
        is_target = int(doc_id) % TARGET_MOD == 0
        for b, n in counts.items():
            raw[b] += n
            if is_target:
                tgt[b] += n
    nz = np.nonzero(raw)[0]
    return pa.table(
        {
            "bucket": pa.array(nz, type=pa.int64()),
            "n_raw": pa.array(raw[nz], type=pa.int64()),
            "n_target": pa.array(tgt[nz], type=pa.int64()),
        }
    )


def _sum_part(group: pa.Table) -> pa.Table:
    import polars as pl

    return (
        pl.from_arrow(group.select(["bucket", "n_raw", "n_target"]))
        .group_by("bucket")
        .agg(
            n_raw=pl.col("n_raw").sum().cast(pl.Int64),
            n_target=pl.col("n_target").sum().cast(pl.Int64),
        )
        .to_arrow()
    )


def fit_log_ratio(docs_ds, num_partitions: int | None = None) -> np.ndarray:
    """One streaming pass over the corpus -> the (N_BUCKETS,) importance
    log-ratio vector log p_target - log p_raw (Laplace-smoothed)."""
    from ..context import shuffle_partitions as _sp

    nparts = num_partitions or _sp()
    rows = hash_reduce(
        docs_ds.map_batches(_fit_partials, batch_format="pyarrow"),
        ["bucket"], _sum_part, nparts,
    ).take_all()  # bounded: <= N_BUCKETS rows by construction
    raw = np.zeros(N_BUCKETS, dtype=np.float64)
    tgt = np.zeros(N_BUCKETS, dtype=np.float64)
    for r in rows:
        raw[int(r["bucket"])] = float(r["n_raw"])
        tgt[int(r["bucket"])] = float(r["n_target"])
    r_total = raw.sum()
    t_total = tgt.sum()
    log_p_t = np.log(tgt + ALPHA) - math.log(t_total + ALPHA * N_BUCKETS)
    log_p_r = np.log(raw + ALPHA) - math.log(r_total + ALPHA * N_BUCKETS)
    return log_p_t - log_p_r


class _DsirScorer:
    """Actor: per-doc importance log-weight + deterministic Gumbel key
    (broadcast log-ratio resolved once per actor)."""

    def __init__(self, lam_ref):
        import ray

        self.lam = ray.get(lam_ref) if not isinstance(lam_ref, np.ndarray) else lam_ref
        self._memo: dict = {}

    def __call__(self, batch: pa.Table) -> pa.Table:
        import polars as pl

        df = pl.from_arrow(batch.select(["doc_id", "text"])).with_columns(
            ws=pl.col("text").str.to_lowercase().str.extract_all(_WORD_RE)
        )
        scores, keys = [], []
        for doc_id, toks in zip(df["doc_id"], df["ws"]):
            counts = _doc_buckets(list(toks) if toks is not None else [], self._memo)
            if counts:
                idx = np.fromiter(counts.keys(), dtype=np.int64, count=len(counts))
                ns = np.fromiter(counts.values(), dtype=np.float64, count=len(counts))
                score = float(self.lam[idx] @ ns)
            else:
                score = 0.0
            u = (
                int(
                    hashlib.md5(
                        (GUMBEL_SALT + str(int(doc_id))).encode()
                    ).hexdigest()[:8],
                    16,
                )
                + 0.5
            ) / 4294967296.0
            gumbel = -math.log(-math.log(u))
            scores.append(score)
            keys.append(score + gumbel)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "score": pa.array(scores, type=pa.float64()),
                "key": pa.array(keys, type=pa.float64()),
            }
        )


def dsir_scores(docs_ds, lam: np.ndarray):
    import ray

    lam_ref = ray.put(lam)
    return docs_ds.map_batches(
        _DsirScorer,
        fn_constructor_args=(lam_ref,),
        batch_format="pyarrow",
        concurrency=(1, 8),
    )


def dsir_select(scored_ds, k: int):
    """Gumbel-top-k selection: per-block top-k, then a <= k x blocks
    driver merge (the orders_topk pattern)."""
    import pyarrow.compute as pc

    def block_topk(t: pa.Table) -> pa.Table:
        if t.num_rows <= k:
            return t
        order = pc.sort_indices(
            t, sort_keys=[("key", "descending"), ("doc_id", "ascending")]
        )
        return t.take(order[:k])

    partials = scored_ds.map_batches(block_topk, batch_format="pyarrow")
    merged = pa.concat_tables(
        [b for b in partials.iter_batches(batch_format="pyarrow")]
        or [pa.table({"doc_id": pa.array([], type=pa.int64()),
                      "score": pa.array([], type=pa.float64()),
                      "key": pa.array([], type=pa.float64())})]
    )
    import pyarrow.compute as pc2

    order = pc2.sort_indices(
        merged, sort_keys=[("key", "descending"), ("doc_id", "ascending")]
    )
    return merged.take(order[: min(k, merged.num_rows)])


def q_dsir_sample(sf_dir: str, frac: float = 0.2):
    """Query surface: DSIR-resampled subset of the documents table
    (target domain = doc_id % 10 == 0), returned as
    (doc_id, score, key) sorted by key desc."""
    import pandas as pd
    import ray.data as rd

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    lam = fit_log_ratio(docs)
    n_docs = docs.count()
    k = max(1, int(frac * n_docs))
    sel = dsir_select(dsir_scores(docs, lam), k)
    out = sel.to_pandas()
    out["score"] = out["score"].round(6)
    out["key"] = out["key"].round(6)
    return pd.DataFrame(out)


def dsir_oracle_sql(frac: float = 0.2) -> str:
    """The full fit+score+select pipeline as one DuckDB query — same
    md5 bucketing, same Laplace smoothing, same Gumbel keys."""
    return f"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(lower(text), '{_WORD_RE}') AS ws
  FROM documents
),
grams AS (
  SELECT doc_id, unnest(ws) AS g FROM toks
  UNION ALL
  SELECT doc_id, ws[i] || ' ' || ws[i + 1] AS g
  FROM toks, UNNEST(range(1, len(ws))) AS t(i)
),
feats AS (
  SELECT doc_id,
         CAST(concat('0x', substr(md5(g), 1, 8)) AS UINTEGER) % {N_BUCKETS} AS b,
         count(*) AS n
  FROM grams GROUP BY 1, 2
),
raw AS (SELECT b, sum(n) AS rn FROM feats GROUP BY b),
tgt AS (SELECT b, sum(n) AS tn FROM feats WHERE doc_id % {TARGET_MOD} = 0 GROUP BY b),
tot AS (
  SELECT (SELECT sum(rn) FROM raw) AS r_total,
         (SELECT coalesce(sum(tn), 0) FROM tgt) AS t_total
),
lam AS (
  SELECT raw.b,
         ln(coalesce(tn, 0) + {ALPHA}) - ln(t_total + {ALPHA} * {N_BUCKETS})
         - ln(rn + {ALPHA}) + ln(r_total + {ALPHA} * {N_BUCKETS}) AS l
  FROM raw LEFT JOIN tgt ON raw.b = tgt.b, tot
),
scores AS (
  SELECT doc_id, sum(n * l) AS score FROM feats JOIN lam ON feats.b = lam.b
  GROUP BY doc_id
),
keyed AS (
  SELECT doc_id, score,
         score - ln(-ln((CAST(concat('0x',
             substr(md5('{GUMBEL_SALT}' || CAST(doc_id AS VARCHAR)), 1, 8))
             AS UINTEGER) + 0.5) / 4294967296.0)) AS key
  FROM scores
)
SELECT doc_id, round(score, 6) AS score, round(key, 6) AS key
FROM keyed
ORDER BY key DESC, doc_id
LIMIT (SELECT CAST(floor({frac} * count(*)) AS BIGINT) FROM documents)
"""
