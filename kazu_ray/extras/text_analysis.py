"""Text-analysis operators over the ``documents`` table: token counting,
quality scoring, language ID, fingerprinting.

All are vectorized ``map_batches`` stages; the SQL-expressible ones have
DuckDB oracles in ``__ray_entry__`` (same regexes, same rounding)."""

from __future__ import annotations

import hashlib
import re

import pyarrow as pa
import pyarrow.compute as pc

from ..context import input_bytes, shuffle_partitions
from ..exchange import hash_reduce

_WORD = re.compile(r"[A-Za-z0-9]+")
STOPWORDS = ("the", "and", "of", "a", "to", "in", "is")
_STOP_SET = frozenset(STOPWORDS)

# tiny per-language marker sets for the n-gram/stopword language heuristic
_LANG_MARKERS = {
    "en": {"the", "and", "of", "to", "is", "in", "that"},
    "es": {"el", "la", "de", "que", "y", "los", "una"},
    "de": {"der", "die", "und", "das", "nicht", "ist", "ein"},
    "fr": {"le", "la", "les", "des", "est", "une", "dans"},
}


def token_stats_batch(batch: pa.Table) -> pa.Table:
    """doc_id, n_tokens, n_chars, stop_ratio (rounded 4dp)."""
    texts = batch.column("text").to_pylist()
    n_tokens, stop_ratio = [], []
    for t in texts:
        words = _WORD.findall(t)
        n = len(words)
        n_tokens.append(n)
        stops = sum(1 for w in words if w.lower() in _STOP_SET)
        # single IEEE division, bit-identical to the DuckDB oracle — no
        # rounding (round() is banker's, SQL ROUND is half-away)
        stop_ratio.append(stops / max(n, 1))
    return pa.Table.from_pydict(
        {
            "doc_id": batch.column("doc_id"),
            "n_tokens": pa.array(n_tokens, type=pa.int64()),
            "n_chars": pc.cast(pc.utf8_length(batch.column("text")), pa.int64()),
            "stop_ratio": pa.array(stop_ratio, type=pa.float64()),
        }
    )


def fingerprint_batch(batch: pa.Table) -> pa.Table:
    """Content fingerprint (md5 here; swap for a rolling hash at will)."""
    fps = [hashlib.md5(t.encode("utf-8")).hexdigest() for t in batch.column("text").to_pylist()]
    return pa.Table.from_pydict(
        {"doc_id": batch.column("doc_id"), "fp": pa.array(fps, type=pa.string())}
    )


def langid_batch(batch: pa.Table) -> pa.Table:
    """Marker-word language heuristic; 'und' when nothing matches."""
    texts = batch.column("text").to_pylist()
    langs = []
    for t in texts:
        words = set(w.lower() for w in _WORD.findall(t))
        best, best_n = "und", 0
        for lang, markers in sorted(_LANG_MARKERS.items()):
            n = len(words & markers)
            if n > best_n:
                best, best_n = lang, n
        langs.append(best)
    return pa.Table.from_pydict(
        {"doc_id": batch.column("doc_id"), "pred_lang": pa.array(langs, type=pa.string())}
    )


def token_partial_counts(batch: pa.Table) -> pa.Table:
    """Combiner for global token frequency: per-batch counts."""
    import polars as pl

    counts: dict[str, int] = {}
    for t in batch.column("text").to_pylist():
        for w in _WORD.findall(t.lower()):
            counts[w] = counts.get(w, 0) + 1
    return pl.DataFrame(
        {"token": list(counts.keys()), "n": list(counts.values())}
    ).cast({"n": pl.Int64}).to_arrow()


def q_doc_token_stats(sf_dir: str):
    import ray.data as rd

    return (
        rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
        .map_batches(token_stats_batch, batch_format="pyarrow")
        .sort("doc_id")
    )


def q_doc_fingerprint(sf_dir: str):
    import ray.data as rd

    return (
        rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
        .map_batches(fingerprint_batch, batch_format="pyarrow")
        .sort("doc_id")
    )


def q_langid_counts(sf_dir: str):
    import ray.data as rd
    from ray.data.aggregate import Count

    return (
        rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
        .map_batches(langid_batch, batch_format="pyarrow")
        .groupby("pred_lang")
        .aggregate(Count(alias_name="n_docs"))
        .sort("pred_lang")
    )


def q_token_topk(sf_dir: str, k: int = 20):
    import ray.data as rd
    from ray.data.aggregate import Sum

    return (
        rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
        .map_batches(token_partial_counts, batch_format="pyarrow")
        .groupby(
            "token",
            num_partitions=shuffle_partitions(
                estimated_bytes=input_bytes(f"{sf_dir}/documents.parquet")
            ),
        )
        .aggregate(Sum("n", alias_name="n"))
        .sort(["n", "token"], descending=[True, False])
        .limit(k)
    )


# GPT-2-style BPE pre-tokenization, simplified to the RE2-safe subset
# (no unicode property classes, no trailing-space lookahead) so the
# IDENTICAL pattern drives Python re and the DuckDB oracle.  Counts the
# pre-tokenizer pieces a byte-level BPE would split on — the standard
# "token count" a training-data pipeline budgets by.
BPE_PRETOKEN_REGEX = (
    r"'(?:s|t|re|ve|m|ll|d)| ?[A-Za-z]+| ?[0-9]+| ?[^\sA-Za-z0-9]+|\s+"
)
_BPE_RE = re.compile(BPE_PRETOKEN_REGEX)


def bpe_token_count_batch(batch: pa.Table) -> pa.Table:
    """doc_id, n_bpe_tokens (pre-tokenizer piece count)."""
    counts = [
        len(_BPE_RE.findall(t)) for t in batch.column("text").to_pylist()
    ]
    return pa.Table.from_pydict(
        {
            "doc_id": batch.column("doc_id"),
            "n_bpe_tokens": pa.array(counts, type=pa.int64()),
        }
    )


def q_bpe_token_count(sf_dir: str):
    import ray.data as rd

    return (
        rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
        .map_batches(bpe_token_count_batch, batch_format="pyarrow")
        .sort("doc_id")
    )


def bpe_token_count_oracle_sql() -> str:
    rx = BPE_PRETOKEN_REGEX.replace("'", "''")  # SQL string-literal escape
    return f"""
        SELECT doc_id,
               CAST(len(regexp_extract_all(text, '{rx}'))
                    AS BIGINT) AS n_bpe_tokens
        FROM documents ORDER BY doc_id
    """


def json_props_batch(batch: pa.Table) -> pa.Table:
    """Vectorized JSON field extraction from the events ``props`` column
    (polars json_path_match — no per-row python json.loads), bucketing
    the extracted key for a typed aggregate."""
    import polars as pl

    df = pl.from_arrow(batch.select(["event_type", "props"])).with_columns(
        k=pl.col("props").str.json_path_match("$.k").cast(pl.Int64)
    )
    out = df.with_columns(k_bucket=(pl.col("k") // 10).cast(pl.Int64)).select(
        "event_type", "k_bucket", "k"
    )
    return out.to_arrow().cast(
        pa.schema(
            [
                ("event_type", pa.string()),
                ("k_bucket", pa.int64()),
                ("k", pa.int64()),
            ]
        )
    )


def q_json_props(sf_dir: str):
    """Semi-structured column handling: extract a JSON field from every
    event's props payload and aggregate per (event_type, decile bucket)
    — count plus summed key value.  Embarrassingly parallel extract,
    one bounded-key groupby."""
    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    return (
        rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_type", "props"])
        .map_batches(json_props_batch, batch_format="pyarrow")
        .groupby(["event_type", "k_bucket"])
        .aggregate(Count(alias_name="n"), Sum("k", alias_name="sum_k"))
        .sort(["event_type", "k_bucket"])
    )


def json_props_oracle_sql() -> str:
    # floor() rather than SQL // : DuckDB integer // truncates toward
    # zero on negatives while polars // floors — floor() matches polars
    return """
        SELECT event_type,
               CAST(floor(CAST(json_extract(props, '$.k') AS BIGINT) / 10.0)
                    AS BIGINT) AS k_bucket,
               COUNT(*) AS n,
               CAST(SUM(CAST(json_extract(props, '$.k') AS BIGINT)) AS BIGINT)
                 AS sum_k
        FROM events
        GROUP BY 1, 2 ORDER BY 1, 2
    """


# --------------------------------------------------------- TF-IDF keywords

_TFIDF_WORD_RE = r"[a-z0-9]+"
TFIDF_TOP_K = 5

TFIDF_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("term", pa.string()),
        ("tf", pa.int64()),
        ("score", pa.float64()),
        ("rank", pa.int64()),
    ]
)


def tfidf_keywords(docs_ds, k: int = TFIDF_TOP_K, num_partitions: int | None = None):
    """Per-document top-k keywords by tf·idf (idf = ln(N/df), raw term
    frequency — the classic salience score behind keyword extraction
    and CCNet-style domain filtering), exactly replayed by one DuckDB
    query (``tfidf_keywords_oracle_sql``).

    Two-exchange shape (the rare_tokens pattern, quality.py:337-420):
    a per-batch combiner reduces token occurrences to one
    (doc_id, term, tf) row per distinct pair (documents are whole rows,
    so tf is exact within the batch); the hash(term) exchange
    co-locates every row of a term, so df(term) is the partition-local
    row count — no DF side table, no join; scored rows then cross a
    doc-keyed exchange where the per-doc top-k (score DESC, term ASC —
    a total order, see below) is taken in-partition.  N (corpus doc
    count) is the one piece of global state, broadcast as a scalar.

    Cross-engine determinism: scores tie at double precision only for
    equal (tf, df) pairs — then the term ASC tie-break decides on both
    engines; ln() is the host libm in polars/numpy and DuckDB alike.
    Reported scores round half-away (functions/rounding.py) to match
    SQL ROUND."""
    import polars as pl

    from ..context import shuffle_partitions as _sp
    from ..functions.rounding import round_half_away

    nparts = num_partitions or _sp()
    n_docs = docs_ds.count()

    def tf_rows(batch: pa.Table) -> pa.Table:
        out = (
            pl.from_arrow(batch.select(["doc_id", "text"]))
            .with_columns(ws=pl.col("text").str.to_lowercase().str.extract_all(_TFIDF_WORD_RE))
            .select("doc_id", "ws")
            .explode("ws", empty_as_null=True)
            .drop_nulls("ws")
            .rename({"ws": "term"})
            .group_by("doc_id", "term")
            .agg(tf=pl.len().cast(pl.Int64))
        )
        return out.to_arrow().cast(
            pa.schema(
                [("doc_id", pa.int64()), ("term", pa.string()), ("tf", pa.int64())]
            )
        )

    def score_part(group: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(group.select(["doc_id", "term", "tf"]))
            .with_columns(df_=pl.len().over("term").cast(pl.Float64))
            .with_columns(
                score=pl.col("tf").cast(pl.Float64)
                * (float(n_docs) / pl.col("df_")).log()
            )
            .select("doc_id", "term", "tf", "score")
            .to_arrow()
        )

    def topk_part(group: pa.Table) -> "object":
        df = pl.from_arrow(group.select(["doc_id", "term", "tf", "score"]))
        out = (
            df.sort(
                ["doc_id", "score", "term"], descending=[False, True, False]
            )
            .with_columns(
                rank=(pl.int_range(pl.len()).over("doc_id") + 1).cast(pl.Int64)
            )
            .filter(pl.col("rank") <= k)
        )
        pdf = out.to_pandas()
        pdf["score"] = [round_half_away(s, 6) for s in pdf["score"]]
        return pdf[["doc_id", "term", "tf", "score", "rank"]]

    scored = hash_reduce(
        docs_ds.map_batches(tf_rows, batch_format="pyarrow"), ["term"], score_part, nparts
    )
    return hash_reduce(scored, ["doc_id"], topk_part, nparts)


def q_tfidf_keywords(sf_dir: str, k: int = TFIDF_TOP_K):
    import ray.data as rd

    path = f"{sf_dir}/documents.parquet"
    ds = rd.read_parquet(path, columns=["doc_id", "text"])
    nparts = shuffle_partitions(estimated_bytes=input_bytes(path) * 2)
    return tfidf_keywords(ds, k=k, num_partitions=nparts).sort(["doc_id", "rank"])


def tfidf_keywords_oracle_sql(k: int = TFIDF_TOP_K) -> str:
    """Same regex, same ln(N/df) weighting, same (score DESC, term ASC)
    total order, same half-away 6dp rounding."""
    return f"""
        WITH tok AS (
          SELECT doc_id,
                 unnest(regexp_extract_all(lower(text), '{_TFIDF_WORD_RE}')) AS term
          FROM documents
        ),
        tf AS (SELECT doc_id, term, COUNT(*) AS tf FROM tok GROUP BY doc_id, term),
        df AS (SELECT term, COUNT(DISTINCT doc_id) AS df FROM tok GROUP BY term),
        n AS (SELECT COUNT(*) AS n FROM documents),
        scored AS (
          SELECT tf.doc_id, tf.term, tf.tf,
                 tf.tf * ln(CAST(n.n AS DOUBLE) / CAST(df.df AS DOUBLE)) AS s
          FROM tf JOIN df USING (term) CROSS JOIN n
        ),
        ranked AS (
          SELECT doc_id, term, tf, s,
                 ROW_NUMBER() OVER (
                   PARTITION BY doc_id ORDER BY s DESC, term ASC
                 ) AS rank
          FROM scored
        )
        SELECT doc_id, term, CAST(tf AS BIGINT) AS tf,
               ROUND(s, 6) AS score, CAST(rank AS BIGINT) AS rank
        FROM ranked WHERE rank <= {k}
        ORDER BY doc_id, rank
    """


def q_source_mode(sf_dir: str):
    """Group-wise MODE: the most frequent token per source, with the
    deterministic (count DESC, token ASC) tie-break — the categorical
    "dominant value per group" primitive (dominant language / label /
    domain per bucket).

    Combiner-first: in-block (source, token) counts, one groupby-sum
    on the pair key, then a per-source argmax — the argmax input is
    vocabulary-bounded per group, so the final map_groups touches
    O(|vocab|) rows per source, never corpus rows.  Exact integer
    counts + total tie-break = exact SQL parity."""
    import polars as pl
    import pyarrow as pa
    import ray.data as rd
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        out = (
            pl.from_arrow(t.select(["source", "text"]))
            .with_columns(
                tok=pl.col("text").str.to_lowercase().str.extract_all(_TFIDF_WORD_RE)
            )
            .explode("tok", empty_as_null=True)
            .drop_nulls("tok")
            .group_by("source", "tok")
            .len()
            .with_columns(n=pl.col("len").cast(pl.Int64))
            .select("source", "tok", "n")
        )
        return out.to_arrow().cast(
            pa.schema(
                [("source", pa.string()), ("tok", pa.string()), ("n", pa.int64())]
            )
        )

    counts = (
        rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["source", "text"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["source", "tok"])
        .aggregate(Sum("n", alias_name="n"))
    )

    def argmax(g):
        import pandas as pd

        g = g.sort_values(["n", "tok"], ascending=[False, True])
        top = g.iloc[0]
        return pd.DataFrame(
            {
                "source": [top["source"]],
                "mode_tok": [top["tok"]],
                "n": [int(top["n"])],
            }
        )

    return (
        counts.groupby("source")
        .map_groups(argmax, batch_format="pandas")
        .sort("source")
    )


def source_mode_oracle_sql() -> str:
    return f"""
        WITH counts AS (
            SELECT source, tok, CAST(COUNT(*) AS BIGINT) AS n
            FROM (
                SELECT source,
                       unnest(regexp_extract_all(lower(text), '{_TFIDF_WORD_RE}'))
                           AS tok
                FROM documents
            )
            GROUP BY source, tok
        ),
        ranked AS (
            SELECT source, tok, n,
                   ROW_NUMBER() OVER (
                       PARTITION BY source ORDER BY n DESC, tok ASC
                   ) AS rk
            FROM counts
        )
        SELECT source, tok AS mode_tok, n
        FROM ranked WHERE rk = 1
        ORDER BY source
    """


def q_source_distinct_tokens(sf_dir: str):
    """EXACT distinct token count per source — the exact counterpart
    of the groupwise-HLL estimate (hll_group_distinct), for the
    group-cardinality scales where exactness is affordable.

    Combiner-first: blocks emit their DISTINCT (source, token) pairs
    (vocabulary-bounded per block), one pair-keyed groupby dedupes
    globally, then a per-source count — the exchange carries distinct
    pairs per block, never token occurrences."""
    import polars as pl
    import pyarrow as pa
    import ray.data as rd

    def pairs(t: pa.Table) -> pa.Table:
        out = (
            pl.from_arrow(t.select(["source", "text"]))
            .with_columns(
                tok=pl.col("text").str.to_lowercase().str.extract_all(_TFIDF_WORD_RE)
            )
            .explode("tok", empty_as_null=True)
            .drop_nulls("tok")
            .unique(subset=["source", "tok"])
            .select("source", "tok")
        )
        return out.to_arrow().cast(
            pa.schema([("source", pa.string()), ("tok", pa.string())])
        )

    deduped = (
        rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["source", "text"])
        .map_batches(pairs, batch_format="pyarrow")
        .groupby(["source", "tok"])
        .count()
        .select_columns(["source", "tok"])
    )
    counts = deduped.groupby("source").count()

    def finish(t: pa.Table) -> pa.Table:
        return t.rename_columns(["source", "n_distinct"]).cast(
            pa.schema([("source", pa.string()), ("n_distinct", pa.int64())])
        )

    return counts.map_batches(finish, batch_format="pyarrow").sort("source")


def source_distinct_tokens_oracle_sql() -> str:
    return f"""
        SELECT source,
               CAST(COUNT(DISTINCT tok) AS BIGINT) AS n_distinct
        FROM (
            SELECT source,
                   unnest(regexp_extract_all(lower(text), '{_TFIDF_WORD_RE}'))
                       AS tok
            FROM documents
        )
        GROUP BY source
        ORDER BY source
    """
