"""Training-data quality heuristics over the ``documents`` table.

Implements the published Gopher document-quality rules (Rae et al.
2021, "Scaling Language Models: Methods, Analysis & Insights from
Training Gopher", appendix A1.1) plus the C4 symbol heuristics
(Raffel et al. 2020): per-document quality *signals* and the boolean
keep/drop *filter* derived from them.

Everything is a vectorized polars computation inside ``map_batches``
(explode → window shift → group_by for the repetition n-grams — no
per-row python loops), and every signal is ALSO expressible in DuckDB
SQL (list_transform n-gram construction + ROW_NUMBER top-1), so the
whole family is oracle-checked end-to-end including the top-n-gram
character fractions.

Deterministic definitions where the papers leave slack:

* words = ``[a-z0-9]+`` runs (the corpus is lowercased),
* top-n-gram character fraction = (count of the most frequent n-gram ×
  its non-space character length) / total word characters, ties broken
  by higher count, then longer gram, then lexicographic,
* symbol ratio = (``#`` count + ``...`` count) / word count.

At 100 TB every signal here is embarrassingly parallel per document —
no shuffle, no state; the filter composes with exact/MinHash dedup as
the standard pre-training cleanup cascade.
"""

from __future__ import annotations

import pyarrow as pa

from ..exchange import hash_reduce

STOPWORDS = ("the", "and", "of", "to", "is", "in", "that")
_WORD_RE = r"[a-z0-9]+"

# Gopher A1.1 thresholds (word count bounds relaxed ×0.5 at the low end
# for the synthetic short-doc corpus; the published 50 stays the default
# path for real data via the ``min_words`` parameter)
GOPHER_THRESHOLDS = {
    "min_words": 50,
    "max_words": 100_000,
    "min_mean_word_len": 3.0,
    "max_mean_word_len": 10.0,
    "max_symbol_ratio": 0.1,
    "min_alpha_word_frac": 0.80,
    "min_stop_hits": 2,
    "max_top2gram_frac": 0.20,
    "max_top3gram_frac": 0.18,
    "max_top4gram_frac": 0.16,
}

SIGNALS_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("n_words", pa.int64()),
        ("mean_word_len", pa.float64()),
        ("symbol_ratio", pa.float64()),
        ("alpha_word_frac", pa.float64()),
        ("stop_hits", pa.int64()),
        ("top2gram_frac", pa.float64()),
        ("top3gram_frac", pa.float64()),
        ("top4gram_frac", pa.float64()),
    ]
)


def _top_ngram_chars(words_df, n: int):
    """Per-doc (count × non-space chars) of the most frequent n-gram.

    ``words_df``: polars frame (doc_id, word, per-doc order preserved).
    Ties: higher count, then longer gram, then lexicographically
    smaller gram — mirrored exactly by the SQL oracle's ROW_NUMBER."""
    import polars as pl

    df = words_df
    parts = [pl.col("word")]
    for k in range(1, n):
        parts.extend([pl.lit(" "), pl.col("word").shift(-k).over("doc_id")])
    grams = (
        df.with_columns(gram=pl.concat_str(parts))
        .drop_nulls("gram")
        .group_by("doc_id", "gram")
        .len()
        .with_columns(
            gchars=pl.col("gram").str.len_chars().cast(pl.Int64) - (n - 1)
        )
        .sort(
            ["doc_id", "len", "gchars", "gram"],
            descending=[False, True, True, False],
        )
        .group_by("doc_id", maintain_order=True)
        .first()
        .with_columns(top_chars=pl.col("len").cast(pl.Int64) * pl.col("gchars"))
        .select("doc_id", "top_chars")
    )
    return grams


def quality_signals_batch(batch: pa.Table) -> pa.Table:
    import polars as pl

    df = pl.from_arrow(batch.select(["doc_id", "text"])).with_columns(
        ws=pl.col("text").str.extract_all(_WORD_RE)
    )
    base = df.with_columns(
        n_words=pl.col("ws").list.len().cast(pl.Int64),
        word_chars=pl.col("ws").list.join("").str.len_chars().cast(pl.Int64),
        alpha_words=pl.col("ws")
        .list.eval(pl.element().str.contains("[a-z]"))
        .list.sum()
        .cast(pl.Int64),
        n_hash=pl.col("text").str.count_matches("#", literal=True).cast(pl.Int64),
        n_ellipsis=pl.col("text")
        .str.count_matches("...", literal=True)
        .cast(pl.Int64),
        stop_hits=sum(
            pl.col("text").str.contains(rf"\b{w}\b").cast(pl.Int64)
            for w in STOPWORDS
        ),
    )
    words = (
        df.select("doc_id", "ws")
        .explode("ws", empty_as_null=True)
        .drop_nulls("ws")
        .rename({"ws": "word"})
    )
    out = base.select(
        "doc_id", "n_words", "word_chars", "alpha_words", "n_hash",
        "n_ellipsis", "stop_hits",
    )
    for n in (2, 3, 4):
        out = out.join(
            _top_ngram_chars(words, n).rename({"top_chars": f"top{n}_chars"}),
            on="doc_id",
            how="left",
        ).with_columns(pl.col(f"top{n}_chars").fill_null(0))
    # one IEEE division per signal, same operand order as the SQL oracle
    out = out.with_columns(
        mean_word_len=pl.col("word_chars") / pl.max_horizontal("n_words", 1),
        symbol_ratio=(pl.col("n_hash") + pl.col("n_ellipsis"))
        / pl.max_horizontal("n_words", 1),
        alpha_word_frac=pl.col("alpha_words") / pl.max_horizontal("n_words", 1),
        top2gram_frac=pl.col("top2_chars") / pl.max_horizontal("word_chars", 1),
        top3gram_frac=pl.col("top3_chars") / pl.max_horizontal("word_chars", 1),
        top4gram_frac=pl.col("top4_chars") / pl.max_horizontal("word_chars", 1),
    ).select([f.name for f in SIGNALS_SCHEMA])
    return out.to_arrow().cast(SIGNALS_SCHEMA)


FILTER_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("keep", pa.bool_()),
        ("reason", pa.string()),
    ]
)

# rule order defines which reason wins — the SQL oracle mirrors it as a
# CASE chain
_RULES = (
    ("too_few_words", lambda c, t: c["n_words"] < t["min_words"]),
    ("too_many_words", lambda c, t: c["n_words"] > t["max_words"]),
    ("mean_word_len", lambda c, t: (c["mean_word_len"] < t["min_mean_word_len"])
        | (c["mean_word_len"] > t["max_mean_word_len"])),
    ("symbol_ratio", lambda c, t: c["symbol_ratio"] > t["max_symbol_ratio"]),
    ("alpha_frac", lambda c, t: c["alpha_word_frac"] < t["min_alpha_word_frac"]),
    ("stopwords", lambda c, t: c["stop_hits"] < t["min_stop_hits"]),
    ("top2gram", lambda c, t: c["top2gram_frac"] > t["max_top2gram_frac"]),
    ("top3gram", lambda c, t: c["top3gram_frac"] > t["max_top3gram_frac"]),
    ("top4gram", lambda c, t: c["top4gram_frac"] > t["max_top4gram_frac"]),
)


def quality_filter_batch(batch: pa.Table, thresholds=None) -> pa.Table:
    import polars as pl

    t = dict(GOPHER_THRESHOLDS)
    if thresholds:
        t.update(thresholds)
    sig = pl.from_arrow(quality_signals_batch(batch))
    cols = {name: pl.col(name) for name in sig.columns}
    reason = pl.lit("")
    keep = pl.lit(True)
    for name, cond in reversed(_RULES):
        c = cond(cols, t)
        reason = pl.when(c).then(pl.lit(name)).otherwise(reason)
        keep = keep & ~c
    out = sig.with_columns(keep=keep, reason=reason).select(
        "doc_id", "keep", "reason"
    )
    return out.to_arrow().cast(FILTER_SCHEMA)


def q_quality_signals(sf_dir: str):
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(quality_signals_batch, batch_format="pyarrow").sort(
        "doc_id"
    )


# thresholds the queryable surface runs with: the synthetic corpus is
# short-doc word salad with ≈1 stopword per doc, so the published word
# count/stopword gates are relaxed to make the filter discriminate; the
# repetition and shape rules stay at the published values.  The oracle
# SQL is generated from this SAME dict.
QUERY_THRESHOLDS = {**GOPHER_THRESHOLDS, "min_words": 30, "min_stop_hits": 1}


def q_quality_filter(sf_dir: str):
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(
        lambda b: quality_filter_batch(b, QUERY_THRESHOLDS),
        batch_format="pyarrow",
    ).sort("doc_id")


def _signals_sql_core() -> str:
    """Shared CTE block computing all signals per doc in DuckDB."""
    stop_sum = " + ".join(
        f"CASE WHEN regexp_matches(text, '\\b{w}\\b') THEN 1 ELSE 0 END"
        for w in STOPWORDS
    )
    tops = []
    for n in (2, 3, 4):
        tops.append(f"""
        g{n} AS (
          SELECT doc_id,
                 unnest(list_transform(
                   generate_series(1, greatest(len(ws) - {n - 1}, 0)),
                   i -> array_to_string(ws[i:i+{n - 1}], ' '))) AS gram
          FROM w
        ),
        c{n} AS (
          SELECT doc_id, gram, COUNT(*) AS cnt,
                 CAST(length(replace(gram, ' ', '')) AS BIGINT) AS gchars
          FROM g{n} GROUP BY doc_id, gram
        ),
        t{n} AS (
          SELECT doc_id, cnt * gchars AS top{n}_chars,
                 ROW_NUMBER() OVER (PARTITION BY doc_id
                   ORDER BY cnt DESC, gchars DESC, gram) AS rn
          FROM c{n}
        )""")
    return f"""
        w AS (
          SELECT doc_id, text, regexp_extract_all(text, '{_WORD_RE}') AS ws
          FROM documents
        ),
        base AS (
          SELECT doc_id,
            CAST(len(ws) AS BIGINT) AS n_words,
            -- array_to_string on an empty list is NULL in DuckDB
            CAST(COALESCE(length(array_to_string(ws, '')), 0) AS BIGINT)
              AS word_chars,
            CAST(len(list_filter(ws, x -> regexp_matches(x, '[a-z]')))
                 AS BIGINT) AS alpha_words,
            CAST(length(text) - length(replace(text, '#', '')) AS BIGINT)
              + CAST((length(text) - length(replace(text, '...', '')))/3 AS BIGINT)
              AS n_symbols,
            CAST({stop_sum} AS BIGINT) AS stop_hits
          FROM w
        ),
        {",".join(tops)},
        sig AS (
          SELECT b.doc_id, b.n_words,
            b.word_chars / GREATEST(b.n_words, 1) AS mean_word_len,
            b.n_symbols / GREATEST(b.n_words, 1) AS symbol_ratio,
            b.alpha_words / GREATEST(b.n_words, 1) AS alpha_word_frac,
            b.stop_hits,
            COALESCE(t2.top2_chars, 0) / GREATEST(b.word_chars, 1) AS top2gram_frac,
            COALESCE(t3.top3_chars, 0) / GREATEST(b.word_chars, 1) AS top3gram_frac,
            COALESCE(t4.top4_chars, 0) / GREATEST(b.word_chars, 1) AS top4gram_frac
          FROM base b
          LEFT JOIN t2 ON b.doc_id = t2.doc_id AND t2.rn = 1
          LEFT JOIN t3 ON b.doc_id = t3.doc_id AND t3.rn = 1
          LEFT JOIN t4 ON b.doc_id = t4.doc_id AND t4.rn = 1
        )"""


def quality_signals_oracle_sql() -> str:
    return f"""
        WITH {_signals_sql_core()}
        SELECT doc_id, n_words, mean_word_len, symbol_ratio,
               alpha_word_frac, stop_hits,
               top2gram_frac, top3gram_frac, top4gram_frac
        FROM sig ORDER BY doc_id
    """


def quality_filter_oracle_sql() -> str:
    t = QUERY_THRESHOLDS
    conds = {
        "too_few_words": f"n_words < {t['min_words']}",
        "too_many_words": f"n_words > {t['max_words']}",
        "mean_word_len": f"(mean_word_len < {t['min_mean_word_len']}"
                         f" OR mean_word_len > {t['max_mean_word_len']})",
        "symbol_ratio": f"symbol_ratio > {t['max_symbol_ratio']}",
        "alpha_frac": f"alpha_word_frac < {t['min_alpha_word_frac']}",
        "stopwords": f"stop_hits < {t['min_stop_hits']}",
        "top2gram": f"top2gram_frac > {t['max_top2gram_frac']}",
        "top3gram": f"top3gram_frac > {t['max_top3gram_frac']}",
        "top4gram": f"top4gram_frac > {t['max_top4gram_frac']}",
    }
    case = " ".join(f"WHEN {c} THEN '{name}'" for name, c in conds.items())
    any_fail = " OR ".join(conds.values())
    return f"""
        WITH {_signals_sql_core()}
        SELECT doc_id, NOT ({any_fail}) AS keep,
               CASE {case} ELSE '' END AS reason
        FROM sig ORDER BY doc_id
    """


# --------------------------------------------------- corpus-relative signal

# a token is 'rare' if its corpus count is <= this.  The published
# CCNet-style setting for web text would be a small absolute count; the
# synthetic corpus is a closed 31-word vocabulary (min count 26 at
# sf0.01), so the queryable surface uses a count threshold that lands
# inside its frequency distribution to keep the signal discriminative.
RARE_THRESHOLD = 100

RARE_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("n_tokens", pa.int64()),
        ("n_rare", pa.int64()),
        ("rare_frac", pa.float64()),
    ]
)


def rare_token_ratio(docs_ds, threshold: int = RARE_THRESHOLD,
                     num_partitions: int | None = None):
    """Corpus-relative quality signal: per-doc fraction of token
    OCCURRENCES whose global corpus frequency is <= threshold (the
    frequency-filtering idea of CCNet-style cleanup, in integer space
    so the oracle is bit-exact — no cross-engine log()).

    Same two-exchange shape as extras/passages.py, WITH a combiner: each
    batch pre-aggregates token occurrences to (doc_id, token, n) before
    the hash(token) exchange, so the all-to-all ships one row per
    DISTINCT doc-token pair instead of one per occurrence (the corpus
    token count).  Each partition still holds every copy of its tokens
    — the corpus count is the sum of the shipped ``n`` partials — so
    the rare flag and per-doc fractions stay bit-exact."""
    import polars as pl

    from ..context import shuffle_partitions as _sp

    nparts = num_partitions or _sp()

    def tokens(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch.select(["doc_id", "text"])).with_columns(
            ws=pl.col("text").str.extract_all(_WORD_RE)
        )
        out = (
            df.select("doc_id", "ws")
            .explode("ws", empty_as_null=True)
            .drop_nulls("ws")
            .rename({"ws": "token"})
            # combiner: occurrences -> (doc_id, token, n) before shuffle
            .group_by("doc_id", "token")
            .agg(n=pl.len().cast(pl.Int64))
        )
        return out.to_arrow().cast(
            pa.schema(
                [("doc_id", pa.int64()), ("token", pa.string()), ("n", pa.int64())]
            )
        )

    def count_part(group: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(group.select(["doc_id", "token", "n"]))
            .with_columns(
                rare=(pl.col("n").sum().over("token") <= threshold)
            )
            .group_by("doc_id")
            .agg(
                n_tokens=pl.col("n").sum().cast(pl.Int64),
                n_rare=pl.col("n").filter(pl.col("rare")).sum()
                .fill_null(0)
                .cast(pl.Int64),
            )
            .to_arrow()
        )

    def merge_doc(group: pa.Table) -> pa.Table:
        df = (
            pl.from_arrow(group.select(["doc_id", "n_tokens", "n_rare"]))
            .group_by("doc_id")
            .agg(pl.col("n_tokens").sum(), pl.col("n_rare").sum())
            .with_columns(rare_frac=pl.col("n_rare") / pl.col("n_tokens"))
            .select("doc_id", "n_tokens", "n_rare", "rare_frac")
        )
        return df.to_arrow()

    partials = hash_reduce(
        docs_ds.map_batches(tokens, batch_format="pyarrow"), ["token"], count_part, nparts
    )
    return (
        hash_reduce(partials, ["doc_id"], merge_doc, nparts)
        .map_batches(
            lambda b: b.select(RARE_SCHEMA.names).cast(RARE_SCHEMA),
            batch_format="pyarrow",
        )
    )


def q_rare_tokens(sf_dir: str):
    import ray.data as rd

    from ..context import input_bytes, shuffle_partitions as _sp

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return rare_token_ratio(
        ds,
        num_partitions=_sp(
            estimated_bytes=input_bytes(f"{sf_dir}/documents.parquet") * 4
        ),
    ).sort("doc_id")


def rare_tokens_oracle_sql(threshold: int = RARE_THRESHOLD) -> str:
    return f"""
        WITH t AS (
          SELECT doc_id,
                 unnest(regexp_extract_all(text, '{_WORD_RE}')) AS token
          FROM documents
        ),
        c AS (SELECT token, COUNT(*) AS cnt FROM t GROUP BY token)
        SELECT t.doc_id,
               CAST(COUNT(*) AS BIGINT) AS n_tokens,
               CAST(COUNT(*) FILTER (c.cnt <= {threshold}) AS BIGINT) AS n_rare,
               CAST(COUNT(*) FILTER (c.cnt <= {threshold}) AS DOUBLE)
                 / CAST(COUNT(*) AS DOUBLE) AS rare_frac
        FROM t JOIN c USING (token)
        GROUP BY t.doc_id
        ORDER BY t.doc_id
    """


# ----------------------------------------------------------- LM perplexity

LM_VOCAB = 4096  # bounded LM size: the broadcast table is V+1 probabilities
LM_ALPHA = 1.0  # add-one smoothing; OOV tokens share the zero-count bucket

LM_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("n_tokens", pa.int64()),
        ("neg_logprob_per_token", pa.float64()),
        ("ppl", pa.float64()),
    ]
)


class _LmScorer:
    """Actor-pool UDF for LM scoring: materializes the broadcast
    unigram log-prob table ONCE per actor (``ray.get`` of the shared
    object-store ref in ``__init__``), then scores batches with a
    vectorized polars join against the V-row table."""

    def __init__(self, lm_ref, lp_oov: float):
        import polars as pl
        import ray

        tokens, lps = ray.get(lm_ref)
        self.lp = pl.DataFrame({"token": tokens, "lp": lps})
        self.lp_oov = lp_oov

    def __call__(self, batch: pa.Table) -> pa.Table:
        import polars as pl

        from ..functions.rounding import round_half_away

        df = pl.from_arrow(batch.select(["doc_id", "text"])).with_columns(
            ws=pl.col("text").str.extract_all(_WORD_RE)
        )
        scored = (
            df.select("doc_id", "ws")
            .explode("ws", empty_as_null=True)
            .drop_nulls("ws")
            .rename({"ws": "token"})
            .join(self.lp, on="token", how="left")
            .with_columns(lp=pl.col("lp").fill_null(self.lp_oov))
            .group_by("doc_id")
            .agg(
                n_tokens=pl.len().cast(pl.Int64),
                s=pl.col("lp").sum(),
            )
        )
        neg = -scored["s"].to_numpy() / scored["n_tokens"].to_numpy()
        import numpy as np

        return pa.Table.from_pydict(
            {
                "doc_id": scored["doc_id"].to_arrow(),
                "n_tokens": scored["n_tokens"].to_arrow(),
                "neg_logprob_per_token": round_half_away(neg, 4),
                "ppl": round_half_away(np.exp(neg), 2),
            },
            schema=LM_SCHEMA,
        )


def unigram_lm_scores(docs_ds, vocab_size: int = LM_VOCAB,
                      num_partitions: int | None = None):
    """CCNet-style LM quality score (Wenzek et al. 2020 use a KenLM
    5-gram perplexity to rank documents; this is the bounded-vocabulary
    unigram variant whose oracle is exact SQL): per-document perplexity
    under an add-one-smoothed top-V unigram LM trained on the corpus
    itself.

    Scale story (two passes, both streaming):

    1. TRAIN — exact corpus token counts via the repo's standard
       combiner-before-shuffle (per-batch (token, n) partials, coarse
       hash(token) exchange, vectorized in-partition sums), then each
       partition emits only its LOCAL top-V candidates plus one total-
       occurrence marker row; the driver merge is bounded by
       partitions × (V+1) rows BY CONSTRUCTION, independent of corpus
       size, and the resulting LM is a V-row table broadcast once via
       ``ray.put``.
    2. SCORE — one streaming ``map_batches`` pass joining each batch's
       tokens against the broadcast table (OOV → shared smoothed
       bucket); no shuffle.

    p(w) = (count(w) + 1) / (T + V_eff + 1) for the global top-V_eff
    tokens, p(oov) = 1 / (T + V_eff + 1), where T is the TOTAL corpus
    token count.  neg_logprob_per_token = -mean ln p; ppl = exp of it.
    """
    import math

    import polars as pl
    import ray

    from ..context import shuffle_partitions as _sp

    nparts = num_partitions or _sp()

    def token_partials(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch.select(["text"])).with_columns(
            ws=pl.col("text").str.extract_all(_WORD_RE)
        )
        out = (
            df.select("ws")
            .explode("ws", empty_as_null=True)
            .drop_nulls("ws")
            .rename({"ws": "token"})
            .group_by("token")
            .agg(n=pl.len().cast(pl.Int64))
        )
        return out.to_arrow().cast(pa.schema([("token", pa.string()), ("n", pa.int64())]))

    def local_top(group: pa.Table) -> pa.Table:
        df = (
            pl.from_arrow(group.select(["token", "n"]))
            .group_by("token")
            .agg(c=pl.col("n").sum().cast(pl.Int64))
        )
        total = int(df["c"].sum())
        top = df.sort(["c", "token"], descending=[True, False]).head(vocab_size)
        # marker row carries this partition's total occurrence count;
        # "" can never collide with a real [a-z0-9]+ token
        marker = pl.DataFrame({"token": [""], "c": [total]}).cast({"c": pl.Int64})
        return pl.concat([top, marker]).to_arrow()

    counts = hash_reduce(
        docs_ds.map_batches(token_partials, batch_format="pyarrow"),
        ["token"], local_top, nparts,
    )
    # bounded driver merge: <= partitions x (V+1) rows by construction
    rows = counts.take_all()
    total = sum(r["c"] for r in rows if r["token"] == "")
    cand = [(r["token"], r["c"]) for r in rows if r["token"]]
    cand.sort(key=lambda x: (-x[1], x[0]))
    top = cand[:vocab_size]
    v_eff = len(top)
    denom = float(total) + LM_ALPHA * (v_eff + 1)
    lm_ref = ray.put(
        (
            [t for t, _c in top],
            [math.log((c + LM_ALPHA) / denom) for _t, c in top],
        )
    )
    lp_oov = math.log(LM_ALPHA / denom)

    return docs_ds.map_batches(
        _LmScorer,
        fn_constructor_args=(lm_ref, lp_oov),
        batch_format="pyarrow",
        concurrency=(1, 8),
    )


def q_lm_perplexity(sf_dir: str):
    import ray.data as rd

    from ..context import input_bytes, shuffle_partitions as _sp

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return unigram_lm_scores(
        ds,
        num_partitions=_sp(
            estimated_bytes=input_bytes(f"{sf_dir}/documents.parquet") * 2
        ),
    ).sort("doc_id")


def lm_perplexity_oracle_sql(vocab_size: int = LM_VOCAB) -> str:
    return f"""
        WITH tok AS (
          SELECT doc_id,
                 unnest(regexp_extract_all(text, '{_WORD_RE}')) AS token
          FROM documents
        ),
        cnt AS (SELECT token, COUNT(*) AS c FROM tok GROUP BY token),
        tot AS (SELECT SUM(c) AS t FROM cnt),
        top AS (
          SELECT token, c FROM cnt ORDER BY c DESC, token LIMIT {vocab_size}
        ),
        veff AS (SELECT COUNT(*) AS v FROM top),
        scored AS (
          SELECT tok.doc_id,
                 ln((COALESCE(top.c, 0) + 1.0) / (tot.t + veff.v + 1.0)) AS lp
          FROM tok LEFT JOIN top USING (token)
          CROSS JOIN tot CROSS JOIN veff
        )
        SELECT doc_id,
               CAST(COUNT(*) AS BIGINT) AS n_tokens,
               ROUND(-AVG(lp), 4) AS neg_logprob_per_token,
               ROUND(EXP(-AVG(lp)), 2) AS ppl
        FROM scored GROUP BY doc_id ORDER BY doc_id
    """


# ---------------------------------------------------------------------------
# Within-doc consecutive-repetition trim — the doc-LOCAL cleanup
# counterpart to the corpus-global chunk dedup (extras/chunk_dedup.py):
# drop each word that exactly repeats its immediate predecessor ("the
# the", OCR stutter, template echo).  ZERO shuffle: one row is one
# document, so the whole operator is a single vectorized map_batches
# (polars shift().over(doc_id) + filter); nothing ever leaves a block.
# Exact SQL parity (counts AND the md5 digest of each cleaned text)
# via DuckDB LAG — the repetition_trim_parity row of approx_metrics.


def repetition_trim(docs_ds):
    """docs (doc_id, text) -> (doc_id, n_words, n_trimmed,
    trimmed_digest) with consecutive duplicate words removed."""

    def trim(batch: pa.Table) -> pa.Table:
        import hashlib

        import polars as pl

        words = (
            pl.from_arrow(batch.select(["doc_id", "text"]))
            .with_columns(ws=pl.col("text").str.extract_all(_WORD_RE))
            .filter(pl.col("ws").list.len() >= 1)
            .select("doc_id", "ws")
            .explode("ws", empty_as_null=True)
            .with_columns(keep=pl.col("ws") != pl.col("ws").shift(1).over("doc_id"))
            .with_columns(keep=pl.col("keep").fill_null(True))
        )
        agg = (
            words.group_by("doc_id", maintain_order=True)
            .agg(
                n_words=pl.len().cast(pl.Int64),
                n_trimmed=(~pl.col("keep")).sum().cast(pl.Int64),
                cleaned=pl.col("ws").filter(pl.col("keep")).str.join(" "),
            )
        )
        pdf = agg.to_pandas()
        pdf["trimmed_digest"] = [
            hashlib.md5(s.encode()).hexdigest() for s in pdf["cleaned"]
        ]
        return pa.Table.from_pandas(
            pdf[["doc_id", "n_words", "n_trimmed", "trimmed_digest"]],
            preserve_index=False,
        ).replace_schema_metadata(None)

    return docs_ds.map_batches(trim, batch_format="pyarrow")


def q_repetition_trim(sf_dir: str):
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return repetition_trim(ds).sort("doc_id")


def repetition_trim_oracle_sql() -> str:
    """The trim as one DuckDB query — same word regex, LAG-based keep
    rule, same md5 of the space-joined survivors."""
    return f"""
        WITH w AS (
          SELECT doc_id, regexp_extract_all(text, '{_WORD_RE}') AS ws
          FROM documents
        ),
        p AS (
          SELECT doc_id,
            unnest(list_transform(
              generate_series(1, len(ws)),
              i -> struct_pack(pos := i, w := ws[i]))) AS u
          FROM w WHERE len(ws) >= 1
        ),
        f AS (
          SELECT doc_id, CAST(u.pos AS BIGINT) AS pos, u.w AS w,
                 (u.w IS DISTINCT FROM
                  LAG(u.w) OVER (PARTITION BY doc_id ORDER BY u.pos)) AS keep
          FROM p
        )
        SELECT doc_id,
               CAST(COUNT(*) AS BIGINT) AS n_words,
               CAST(COUNT(*) FILTER (NOT keep) AS BIGINT) AS n_trimmed,
               md5(string_agg(w, ' ' ORDER BY pos) FILTER (keep))
                 AS trimmed_digest
        FROM f GROUP BY doc_id ORDER BY doc_id
    """
