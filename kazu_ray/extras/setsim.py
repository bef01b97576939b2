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

Pipeline (all Dataset-native, size-routed like embedding_neardup):
1. shingle sets per doc (one row per doc);
2. global df: explode + groupby count.  When the distinct-shingle
   table fits the broadcast bound it ships once via ``ray.put`` and
   prefix selection runs INSIDE the original doc blocks (zero
   exchange); above the bound, the exchange path attaches df in a
   token-keyed groupby and selects prefixes in a doc-keyed groupby
   (both paths pytest-pinned equal);
3. candidates: groupby(prefix shingle) emits in-bucket pairs a < b
   with the integer length filter (5*min_n >= 4*max_n for t = 0.8 — a
   Jaccard >= t pair cannot differ in size by more than t) applied
   BEFORE anything leaves the bucket;
4. pair-keyed dedup, then exact verification through two hash joins
   that attach each side's shingle string (the candidate set is
   similarity-bounded, not corpus-quadratic; no per-doc table is ever
   collected on the driver).

Arithmetic is integer until the single final IEEE division
(|intersection| / |union|), so the DuckDB brute-force oracle matches
bit-for-bit; ceil(t*n) is computed as ``(4*n + 4) // 5`` in BOTH
engines (never 0.8*n in floats — 0.8 is not a binary fraction).

Scale design: the df exchange is vocabulary-bounded; prefix rows are
at most (1-t)*|set|+1 per doc; the bucket pair stage is quadratic only
inside one prefix-token bucket (bounded by that token's prefix df —
the rarest-first order minimizes exactly this); verification joins
move token sets only for candidate pairs.  No stage is corpus-
quadratic.

Reference seam: SURVEY §2l beyond-the-reference dedup family.
"""
from __future__ import annotations

import re

import numpy as np
import pyarrow as pa

THRESHOLD_NUM, THRESHOLD_DEN = 4, 5  # t = 0.8 as an exact rational
_WORD = re.compile(r"[a-z0-9]+")

PAIR_SCHEMA = pa.schema(
    [("doc_a", pa.int64()), ("doc_b", pa.int64()), ("jaccard", pa.float64())]
)


def _prefix_len(n: int) -> int:
    """p = n - ceil(t*n) + 1 with t = 4/5, in exact integer math."""
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


BROADCAST_MAX = 200_000  # distinct shingles; above this the df exchange path engages


def setsim_join(ds, num_partitions: int = 8, broadcast_max: int = BROADCAST_MAX):
    """Exact Jaccard >= 4/5 pairs over (doc_id, text) rows.  Pass
    ``broadcast_max=0`` to force the df exchange path (pytest pins both
    df routes equal)."""
    import pandas as pd
    import polars as pl
    import ray

    from kazu_ray.joins import hash_join

    sets = (
        token_sets(ds)
        .filter(expr="n > 0")
        .materialize()
    )

    def explode(t: pa.Table) -> pa.Table:
        out = (
            pl.from_arrow(t.select(["doc_id", "words", "n"]))
            .explode("words")
            .rename({"words": "token"})
        )
        return out.to_arrow().cast(
            pa.schema(
                [("doc_id", pa.int64()), ("token", pa.string()),
                 ("n", pa.int64())]
            )
        )

    exploded = sets.map_batches(explode, batch_format="pyarrow").materialize()
    dfreq = exploded.groupby("token").count().materialize()
    n_tokens = dfreq.count()

    prefix_schema = pa.schema(
        [("doc_id", pa.int64()), ("token", pa.string()), ("n", pa.int64())]
    )

    if n_tokens <= broadcast_max:
        # broadcast route: df dict ships once; prefix selection runs in
        # the ORIGINAL doc blocks — zero additional exchange
        df_map = {
            r["token"]: int(r["count()"]) for r in dfreq.take_all()
        }
        df_ref = ray.put(df_map)

        class PrefixSelect:
            """Vectorized in-block prefix selection: explode + one
            columnar join against the broadcast df frame + window
            rank — no Python per row."""

            def __init__(self, ref):
                dfm = ray.get(ref)
                self.df_frame = pl.DataFrame(
                    {"token": list(dfm.keys()),
                     "df": list(dfm.values())}
                ).with_columns(pl.col("df").cast(pl.Int64))

            def __call__(self, t: pa.Table) -> pa.Table:
                out = (
                    pl.from_arrow(t.select(["doc_id", "words", "n"]))
                    .explode("words")
                    .rename({"words": "token"})
                    .join(self.df_frame, on="token", how="left")
                    .sort(["doc_id", "df", "token"])
                    .with_columns(
                        rank=pl.int_range(pl.len()).over("doc_id"),
                        p=pl.col("n")
                        - (THRESHOLD_NUM * pl.col("n") + THRESHOLD_DEN - 1)
                        // THRESHOLD_DEN
                        + 1,
                    )
                    .filter(pl.col("rank") < pl.col("p"))
                    .select("doc_id", "token", "n")
                )
                return out.to_arrow().cast(prefix_schema)

        prefixes = sets.map_batches(
            PrefixSelect,
            fn_constructor_args=(df_ref,),
            concurrency=(1, 4),
            batch_format="pyarrow",
        )
    else:
        # exchange route: df(token) == the token group's row count, so
        # ONE token-keyed groupby both computes df and attaches it
        def attach_df(g: pd.DataFrame) -> pd.DataFrame:
            out = g[["doc_id", "token", "n"]].copy()
            out["df"] = out.groupby("token")["doc_id"].transform("size")
            return out.astype(
                {"doc_id": "int64", "n": "int64", "df": "int64"}
            )

        ranked = exploded.groupby("token").map_groups(
            attach_df, batch_format="pandas"
        )

        def prefix_rows(g: pd.DataFrame) -> pd.DataFrame:
            g = g.sort_values(["doc_id", "df", "token"])
            p = g.groupby("doc_id")["n"].transform(
                lambda s: _prefix_len(int(s.iloc[0]))
            )
            g["rank"] = g.groupby("doc_id").cumcount()
            keep = g[g["rank"] < p]
            return keep[["doc_id", "token", "n"]].astype(
                {"doc_id": "int64", "n": "int64"}
            )

        prefixes = (
            ranked.groupby("doc_id")
            .map_groups(prefix_rows, batch_format="pandas")
        )

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("doc_id")
        ids = g["doc_id"].to_numpy()
        ns = g["n"].to_numpy()
        if len(ids) < 2:
            return pd.DataFrame(
                {"doc_a": [], "doc_b": []}
            ).astype({"doc_a": "int64", "doc_b": "int64"})
        ia, ib = np.triu_indices(len(ids), k=1)
        na, nb = ns[ia], ns[ib]
        # integer length filter: Jaccard >= 4/5 forces 5*min >= 4*max
        keep = (ids[ia] != ids[ib]) & (
            THRESHOLD_DEN * np.minimum(na, nb)
            >= THRESHOLD_NUM * np.maximum(na, nb)
        )
        return pd.DataFrame({"doc_a": ids[ia[keep]], "doc_b": ids[ib[keep]]})

    def dedup(g: pd.DataFrame) -> pd.DataFrame:
        return g.drop_duplicates(["doc_a", "doc_b"])[
            ["doc_a", "doc_b"]
        ].astype({"doc_a": "int64", "doc_b": "int64"})

    candidates = (
        prefixes.groupby("token")
        .map_groups(bucket_pairs, batch_format="pandas")
        .groupby(["doc_a", "doc_b"])
        .map_groups(dedup, batch_format="pandas")
    )

    with_a = hash_join(
        candidates,
        sets.select_columns(["doc_id", "wstr"]).rename_columns(
            {"doc_id": "a_id", "wstr": "wstr_a"}
        ),
        left_on="doc_a",
        right_on="a_id",
        num_partitions=num_partitions,
        left_schema=pa.schema([("doc_a", pa.int64()), ("doc_b", pa.int64())]),
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
