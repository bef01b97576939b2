"""Cross-document duplicated-passage detection (exact substring dedup).

The substring-level counterpart to document-level dedup (extras/
dedup.py), after Lee et al. 2022 ("Deduplicating Training Data Makes
Language Models Better"): find word k-gram passages that occur in more
than one document and score each document by the fraction of its
distinct passages that are duplicated elsewhere in the corpus.  Lee et
al. build a corpus suffix array; the Ray-native equivalent here is the
k-gram exchange — equivalent detection power for fixed-length windows,
and embarrassingly partitionable.

Two shuffles, both vectorized:

1. ``map_batches`` → per-doc DISTINCT k-grams (polars shift/concat —
   the same window construction as extras/quality.py),
2. the ``hash(gram)`` exchange (``exchange.hash_reduce``) — every
   copy of a gram lands in one partition, where ONE vectorized polars
   group_by counts documents per gram and emits per-doc partials; no
   per-gram python groups, and no hash-collision risk since the
   in-partition key is the string,
3. the ``hash(doc_id)`` exchange sums per-doc totals, one IEEE division.

At 100 TB the gram exchange is the dominant cost; it is a single
all-to-all of (doc_id, gram-hash-bucketed) rows with per-partition size
controlled by P (``shuffle_partitions`` sizes it to the input), and the
within-doc DISTINCT pass upstream removes the worst self-repetition
blowup before anything crosses the network.

Docs with fewer than k words carry no passage and are excluded on both
engines (the SQL oracle mirrors this with ``len(ws) >= k``).
"""

from __future__ import annotations

import pyarrow as pa

from ..context import input_bytes, shuffle_partitions
from ..exchange import hash_reduce

_WORD_RE = r"[a-z0-9]+"
DEFAULT_K = 5

PASSAGE_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("n_grams", pa.int64()),
        ("n_dup", pa.int64()),
        ("dup_frac", pa.float64()),
    ]
)


def _doc_grams_batch(batch: pa.Table, k: int) -> pa.Table:
    """(doc_id, gram): distinct word k-grams per document."""
    import polars as pl

    df = pl.from_arrow(batch.select(["doc_id", "text"])).with_columns(
        ws=pl.col("text").str.extract_all(_WORD_RE)
    )
    parts = [pl.col("ws")]
    # build grams on the exploded word frame via per-doc window shifts
    words = (
        df.select("doc_id", "ws")
        .explode("ws", empty_as_null=True)
        .rename({"ws": "word"})
    )
    gram_parts = [pl.col("word")]
    for j in range(1, k):
        gram_parts.extend([pl.lit(" "), pl.col("word").shift(-j).over("doc_id")])
    out = (
        words.with_columns(gram=pl.concat_str(gram_parts))
        .drop_nulls("gram")
        .select("doc_id", "gram")
        .unique()
    )
    return out.to_arrow().cast(
        pa.schema([("doc_id", pa.int64()), ("gram", pa.string())])
    )


def _count_in_partition(group: pa.Table) -> pa.Table:
    """Vectorized within one gram partition: per-gram doc count →
    per-doc PARTIAL (n_grams, n_dup) sums.  The partition holds every
    copy of each of its grams, so dup flags are exact; emitting partials
    (≤ docs-per-partition rows) instead of per-gram rows keeps the
    second exchange small."""
    import polars as pl

    return (
        pl.from_arrow(group.select(["doc_id", "gram"]))
        .with_columns(
            is_dup=(pl.col("gram").count().over("gram") >= 2).cast(pl.Int64)
        )
        .group_by("doc_id")
        .agg(
            n_grams=pl.len().cast(pl.Int64),
            n_dup=pl.col("is_dup").sum().cast(pl.Int64),
        )
        .to_arrow()
    )


def _merge_doc_partials(group: pa.Table) -> pa.Table:
    """Final per-doc totals + one IEEE division, vectorized over the
    doc-side partition."""
    import polars as pl

    df = (
        pl.from_arrow(group.select(["doc_id", "n_grams", "n_dup"]))
        .group_by("doc_id")
        .agg(pl.col("n_grams").sum(), pl.col("n_dup").sum())
        .with_columns(dup_frac=pl.col("n_dup") / pl.col("n_grams"))
        .select("doc_id", "n_grams", "n_dup", "dup_frac")
    )
    return df.to_arrow()


def duplicated_passages(docs_ds, k: int = DEFAULT_K, num_partitions: int | None = None):
    """Per-doc duplicated-passage stats dataset (PASSAGE_SCHEMA):
    a gram-keyed exchange, then a doc-keyed one."""
    nparts = num_partitions or shuffle_partitions()
    grams = docs_ds.map_batches(
        lambda b: _doc_grams_batch(b, k), batch_format="pyarrow"
    )
    partials = hash_reduce(grams, ["gram"], _count_in_partition, nparts)
    out = hash_reduce(partials, ["doc_id"], _merge_doc_partials, nparts)
    return out.map_batches(
        lambda b: b.select(PASSAGE_SCHEMA.names).cast(PASSAGE_SCHEMA),
        batch_format="pyarrow",
    )


def q_dup_passages(sf_dir: str, k: int = DEFAULT_K):
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return duplicated_passages(
        ds,
        k=k,
        num_partitions=shuffle_partitions(
            estimated_bytes=input_bytes(f"{sf_dir}/documents.parquet") * 8
        ),
    ).sort("doc_id")


def dup_passages_oracle_sql(k: int = DEFAULT_K) -> str:
    return f"""
        WITH w AS (
          SELECT doc_id, regexp_extract_all(text, '{_WORD_RE}') AS ws
          FROM documents
        ),
        g AS (
          SELECT DISTINCT doc_id,
            unnest(list_transform(
              generate_series(1, greatest(len(ws) - {k - 1}, 0)),
              i -> array_to_string(ws[i:i+{k - 1}], ' '))) AS gram
          FROM w WHERE len(ws) >= {k}
        ),
        c AS (SELECT gram, COUNT(*) AS cnt FROM g GROUP BY gram)
        SELECT g.doc_id,
               CAST(COUNT(*) AS BIGINT) AS n_grams,
               CAST(COUNT(*) FILTER (c.cnt >= 2) AS BIGINT) AS n_dup,
               CAST(COUNT(*) FILTER (c.cnt >= 2) AS DOUBLE)
                 / CAST(COUNT(*) AS DOUBLE) AS dup_frac
        FROM g JOIN c USING (gram)
        GROUP BY g.doc_id
        ORDER BY g.doc_id
    """


def decontaminate(docs_ds, benchmark_grams: set[str], k: int = DEFAULT_K):
    """Benchmark decontamination (GPT-3 appendix C / Lee et al. style):
    flag documents sharing any word k-gram with a benchmark set.

    The benchmark side is SMALL by nature (eval suites, not corpora), so
    this is the broadcast pattern, not an exchange: the gram set ships
    once via ray.put and every batch filters against it locally — zero
    shuffle, corpus never leaves its partitions."""
    import ray

    bl_ref = ray.put(sorted(benchmark_grams))

    def mark(batch: pa.Table) -> pa.Table:
        import polars as pl
        import ray as _ray

        bl = _ray.get(bl_ref)
        grams = pl.from_arrow(_doc_grams_batch(batch, k))
        hits = (
            grams.with_columns(hit=pl.col("gram").is_in(bl))
            .group_by("doc_id")
            .agg(n_hits=pl.col("hit").sum().cast(pl.Int64))
        )
        base = pl.from_arrow(batch.select(["doc_id"]))
        out = (
            base.join(hits, on="doc_id", how="left")
            .with_columns(n_hits=pl.col("n_hits").fill_null(0))
            .with_columns(contaminated=pl.col("n_hits") > 0)
        )
        return out.to_arrow().cast(
            pa.schema(
                [
                    ("doc_id", pa.int64()),
                    ("n_hits", pa.int64()),
                    ("contaminated", pa.bool_()),
                ]
            )
        )

    return docs_ds.map_batches(mark, batch_format="pyarrow")


BENCH_MOD = 10  # doc_id % BENCH_MOD == 0 -> 'benchmark' doc (10%)


def benchmark_gram_set(sf_dir: str, k: int = DEFAULT_K) -> set[str]:
    """Distinct word k-grams of the benchmark subset, collected by
    STREAMING: the corpus is scanned as a Dataset, each batch filters to
    its benchmark rows and emits per-batch-distinct grams, and only
    those gram strings ever reach the driver.  Driver memory is bounded
    by the benchmark gram set (eval-suite-sized by construction), never
    by the corpus — the full documents table is never materialized."""
    import pyarrow.compute as pc
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def bench_grams(b: pa.Table) -> pa.Table:
        bid = b.column("doc_id").to_numpy(zero_copy_only=False)
        sub = b.filter(pa.array((bid % BENCH_MOD) == 0))
        if sub.num_rows == 0:
            return pa.table({"gram": pa.array([], type=pa.string())})
        g = _doc_grams_batch(sub, k)
        return pa.table({"gram": pc.unique(g.column("gram"))})

    out: set[str] = set()
    for batch in ds.map_batches(bench_grams, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        out.update(batch.column("gram").to_pylist())
    return out


def q_decontaminate(sf_dir: str, k: int = DEFAULT_K):
    """Queryable surface: docs with doc_id % BENCH_MOD == 0 act as the
    'benchmark' set (deterministic stand-in for an eval suite); every
    OTHER doc is scored for k-gram overlap against it."""
    import ray.data as rd

    bench_grams = benchmark_gram_set(sf_dir, k)

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def non_benchmark(b: pa.Table) -> pa.Table:
        bid = b.column("doc_id").to_numpy(zero_copy_only=False)
        return b.filter(pa.array((bid % BENCH_MOD) != 0))

    rest = ds.map_batches(non_benchmark, batch_format="pyarrow")
    return decontaminate(rest, bench_grams, k=k).sort("doc_id")


def decontaminate_oracle_sql(k: int = DEFAULT_K) -> str:
    return f"""
        WITH w AS (
          SELECT doc_id, regexp_extract_all(text, '{_WORD_RE}') AS ws
          FROM documents
        ),
        g AS (
          SELECT DISTINCT doc_id,
            unnest(list_transform(
              generate_series(1, greatest(len(ws) - {k - 1}, 0)),
              i -> array_to_string(ws[i:i+{k - 1}], ' '))) AS gram
          FROM w
        ),
        bench AS (SELECT DISTINCT gram FROM g WHERE doc_id % {BENCH_MOD} = 0),
        scored AS (
          SELECT g.doc_id,
                 CAST(COUNT(*) FILTER (b.gram IS NOT NULL) AS BIGINT) AS n_hits
          FROM g LEFT JOIN bench b USING (gram)
          WHERE g.doc_id % {BENCH_MOD} != 0
          GROUP BY g.doc_id
        )
        SELECT d.doc_id, COALESCE(s.n_hits, 0) AS n_hits,
               COALESCE(s.n_hits, 0) > 0 AS contaminated
        FROM (SELECT doc_id FROM documents WHERE doc_id % {BENCH_MOD} != 0) d
        LEFT JOIN scored s USING (doc_id)
        ORDER BY d.doc_id
    """
