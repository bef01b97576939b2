"""Exact set-similarity self-join via prefix filtering (Chaudhuri 2006
/ PPJoin, Xiao 2008) — the DISTRIBUTED exact path of the dedup family.

The bounded quadratic baseline (`dedup.q_jaccard_pairs`) verifies a
120-doc window; MinHash-LSH (`dedup`) finds candidates approximately.
This operator returns the EXACT shingle-set Jaccard >= t pair set
over the WHOLE corpus with no quadratic stage (sets are the documents'
distinct 3-word shingles — the dup_passages/minhash shingling, which
keeps sets diverse; WORD-set Jaccard degenerates on bounded
vocabularies into giant identical-set cliques whose output is
inherently quadratic), using the prefix-filtering theorem:
order every document's distinct tokens canonically (global document
frequency asc, token asc — rarest first) and take the first
``p = n - ceil(t*n) + 1`` tokens; two sets with Jaccard >= t MUST
share at least one token inside these prefixes, so a groupby on prefix
tokens surfaces every true pair.  Rarest-first ordering makes prefix
buckets small (a stop word never enters a prefix unless a document is
almost entirely stop words).

Pipeline (all Dataset-native; every keyed step is one
``exchange.hash_reduce`` with a polars reducer over many keys at once):
1. shingle sets per doc (one row per doc), exploded to (doc_id, token);
2. global df: a token-keyed exchange attaches df = the token's row
   count; a doc-keyed exchange sorts each doc's tokens on (df, token)
   and keeps the first p;
3. candidates: a prefix-token-keyed exchange self-joins each bucket on
   token and keeps pairs a < b that pass the integer length filter
   (5*min_n >= 4*max_n for t = 0.8 — a Jaccard >= t pair cannot differ
   in size by more than t) BEFORE anything leaves the bucket;
4. pair-keyed dedup, then exact verification through two hash joins
   that attach each side's shingle string (the candidate set is
   similarity-bounded, not corpus-quadratic; no per-doc table is ever
   collected on the driver).

Arithmetic is integer until the single final IEEE division
(|intersection| / |union|), so the DuckDB brute-force oracle matches
bit-for-bit; ceil(t*n) is computed as ``(4*n + 4) // 5`` in BOTH
engines (never 0.8*n in floats — 0.8 is not a binary fraction).

Scale design: the df and prefix exchanges move each doc's shingle
rows once each (df is counted where a token's rows meet, so no df
table is built or broadcast); prefix rows are at most (1-t)*|set|+1
per doc; the bucket pair stage is quadratic only inside one
prefix-token bucket (bounded by that token's prefix df — the
rarest-first order minimizes exactly this); verification joins move
token sets only for candidate pairs.  No stage is corpus-quadratic.

Reference seam: SURVEY §2l beyond-the-reference dedup family.
"""
from __future__ import annotations

import re

import pyarrow as pa

THRESHOLD_NUM, THRESHOLD_DEN = 4, 5  # t = 0.8 as an exact rational
_WORD = re.compile(r"[a-z0-9]+")

PAIR_SCHEMA = pa.schema(
    [("doc_a", pa.int64()), ("doc_b", pa.int64()), ("jaccard", pa.float64())]
)


def _prefix_len(n):
    """p = n - ceil(t*n) + 1 with t = 4/5, in exact integer math (``n``
    is an int or a polars integer expression)."""
    return n - (THRESHOLD_NUM * n + THRESHOLD_DEN - 1) // THRESHOLD_DEN + 1


SHINGLE_K = 3


def token_sets(ds):
    """(doc_id, words list<string> sorted, wstr, n) — one row per doc;
    "words" are the doc's distinct SHINGLE_K-word shingles.  Docs with
    fewer than SHINGLE_K words have empty sets and are excluded from
    the join in both engines."""

    def _shingles(text: str) -> list:
        ws = _WORD.findall(text.lower())
        return sorted(
            {
                " ".join(ws[i : i + SHINGLE_K])
                for i in range(len(ws) - SHINGLE_K + 1)
            }
        )

    def to_sets(t: pa.Table) -> pa.Table:
        sets = [_shingles(x) for x in t.column("text").to_pylist()]
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "words": pa.array(sets, type=pa.list_(pa.string())),
                # '\x1f'-joined twin: pyarrow's bucket join cannot
                # carry list columns as non-key fields, so the
                # verification joins ship this string form instead
                # (unit separator — cannot occur inside a shingle)
                "wstr": pa.array(["\x1f".join(s) for s in sets], pa.string()),
                "n": pa.array([len(s) for s in sets], pa.int64()),
            }
        )

    return ds.map_batches(to_sets, batch_format="pyarrow")


def setsim_join(ds, num_partitions: int = 8):
    """Exact Jaccard >= 4/5 pairs over (doc_id, text) rows: returns
    (candidate pairs, verified pairs)."""
    import polars as pl

    from kazu_ray.exchange import hash_reduce
    from kazu_ray.joins import hash_join

    sets = (
        token_sets(ds)
        .filter(expr="n > 0")
        .materialize()
    )
    token_schema = pa.schema(
        [("doc_id", pa.int64()), ("token", pa.string()), ("n", pa.int64())]
    )
    df_schema = token_schema.append(pa.field("df", pa.int64()))
    pair_keys = pa.schema([("doc_a", pa.int64()), ("doc_b", pa.int64())])

    def explode(t: pa.Table) -> pa.Table:
        out = (
            pl.from_arrow(t.select(["doc_id", "words", "n"]))
            .explode("words", empty_as_null=True)
            .rename({"words": "token"})
        )
        return out.to_arrow().cast(token_schema)

    def attach_df(t: pa.Table) -> pa.Table:
        # every row of a token is in this partition: df = its row count
        out = pl.from_arrow(t).with_columns(df=pl.len().over("token"))
        return out.to_arrow().cast(df_schema)

    def prefix_rows(t: pa.Table) -> pa.Table:
        # every row of a doc is in this partition: rank its tokens
        # rarest first and keep the first p = _prefix_len(n)
        out = (
            pl.from_arrow(t)
            .sort(["doc_id", "df", "token"])
            .filter(
                pl.int_range(pl.len()).over("doc_id")
                < _prefix_len(pl.col("n"))
            )
            .select("doc_id", "token", "n")
        )
        return out.to_arrow().cast(token_schema)

    def bucket_pairs(t: pa.Table) -> pa.Table:
        # in-bucket pairs a < b with the integer length filter:
        # Jaccard >= 4/5 forces 5*min(n) >= 4*max(n)
        df = pl.from_arrow(t)
        out = (
            df.join(df, on="token", suffix="_b")
            .filter(
                (pl.col("doc_id") < pl.col("doc_id_b"))
                & (
                    THRESHOLD_DEN * pl.min_horizontal("n", "n_b")
                    >= THRESHOLD_NUM * pl.max_horizontal("n", "n_b")
                )
            )
            .select(doc_a="doc_id", doc_b="doc_id_b")
        )
        return out.to_arrow().cast(pair_keys)

    def dedup(t: pa.Table) -> pa.Table:
        return pl.from_arrow(t).unique().to_arrow().cast(pair_keys)

    exploded = sets.map_batches(explode, batch_format="pyarrow")
    ranked = hash_reduce(exploded, ["token"], attach_df, num_partitions)
    prefixes = hash_reduce(ranked, ["doc_id"], prefix_rows, num_partitions)
    pairs = hash_reduce(prefixes, ["token"], bucket_pairs, num_partitions)
    candidates = hash_reduce(pairs, ["doc_a", "doc_b"], dedup, num_partitions)

    with_a = hash_join(
        candidates,
        sets.select_columns(["doc_id", "wstr"]).rename_columns(
            {"doc_id": "a_id", "wstr": "wstr_a"}
        ),
        left_on="doc_a",
        right_on="a_id",
        num_partitions=num_partitions,
        left_schema=pair_keys,
        right_schema=pa.schema(
            [("a_id", pa.int64()), ("wstr_a", pa.string())]
        ),
    ).map_batches(
        lambda t: t.select(["doc_a", "doc_b", "wstr_a"]),
        batch_format="pyarrow",
    )
    with_b = hash_join(
        with_a,
        sets.select_columns(["doc_id", "wstr"]).rename_columns(
            {"doc_id": "b_id", "wstr": "wstr_b"}
        ),
        left_on="doc_b",
        right_on="b_id",
        num_partitions=num_partitions,
        left_schema=pa.schema(
            [
                ("doc_a", pa.int64()),
                ("doc_b", pa.int64()),
                ("wstr_a", pa.string()),
            ]
        ),
        right_schema=pa.schema(
            [("b_id", pa.int64()), ("wstr_b", pa.string())]
        ),
    )

    def verify(t: pa.Table) -> pa.Table:
        a_ids = t.column("doc_a").to_pylist()
        b_ids = t.column("doc_b").to_pylist()
        was = t.column("wstr_a").to_pylist()
        wbs = t.column("wstr_b").to_pylist()
        oa, ob, oj = [], [], []
        for a, b, wa, wb in zip(a_ids, b_ids, was, wbs):
            sa, sb = set(wa.split("\x1f")), set(wb.split("\x1f"))
            inter = len(sa & sb)
            union = len(sa | sb)
            # exact rational compare, then ONE IEEE division (oracle-equal)
            if union and THRESHOLD_DEN * inter >= THRESHOLD_NUM * union:
                oa.append(a)
                ob.append(b)
                oj.append(inter / union)
        return pa.table(
            {
                "doc_a": pa.array(oa, pa.int64()),
                "doc_b": pa.array(ob, pa.int64()),
                "jaccard": pa.array(oj, pa.float64()),
            }
        ).cast(PAIR_SCHEMA)

    return candidates, with_b.map_batches(verify, batch_format="pyarrow")


def q_setsim_pairs(sf_dir: str):
    """Exact corpus-wide Jaccard >= 0.8 pair set (no doc-count cap —
    contrast with the bounded-window jaccard_pairs baseline)."""
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    _, pairs = setsim_join(ds)
    return pairs.sort(["doc_a", "doc_b"])


def setsim_oracle_sql() -> str:
    """Brute-force ground truth: full self-join over distinct 3-shingle
    arrays, same rational threshold compare, same single division."""
    k = SHINGLE_K
    return f"""
        WITH w AS (
          SELECT doc_id,
                 regexp_extract_all(lower(text), '[a-z0-9]+') AS ws
          FROM documents
        ),
        g AS (
          SELECT doc_id, list_sort(list_distinct(list_transform(
                   generate_series(1, greatest(len(ws) - {k - 1}, 0)),
                   i -> array_to_string(ws[i:i+{k - 1}], ' ')))) AS ss
          FROM w WHERE len(ws) >= {k}
        )
        SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
               CAST(len(list_intersect(a.ss, b.ss)) AS DOUBLE)
                 / len(list_distinct(a.ss || b.ss)) AS jaccard
        FROM g a JOIN g b ON a.doc_id < b.doc_id
        WHERE {THRESHOLD_DEN} * len(list_intersect(a.ss, b.ss))
              >= {THRESHOLD_NUM} * len(list_distinct(a.ss || b.ss))
        ORDER BY doc_a, doc_b
    """
