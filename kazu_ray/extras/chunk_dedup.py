"""Global exact passage dedup with keep-first-occurrence semantics
(C4 / Dolma style).

Where extras/passages.py SCORES documents by their duplicated-passage
fraction (Lee et al. 2022), this operator actually DEDUPLICATES: the
corpus is segmented into fixed-size non-overlapping word chunks (the
tractable analogue of C4's three-sentence spans, Raffel et al. 2020
§2.2 / Dolma's paragraph dedup), and each distinct chunk text is kept
only at its FIRST occurrence corpus-wide — the occurrence with the
lexicographically smallest (doc_id, chunk_no).  Every other copy is
dropped, and each document is re-assembled from its surviving chunks.

Shape — HASH-ONLY classification exchange + size-routed verdict apply
(round 5; the round-4 design shipped chunk TEXT through both of its
exchanges, ~2x corpus bytes total):

1. ``map_batches`` scan 1 → KEYS ONLY: (h1, h2, doc_id, chunk_no)
   where (h1, h2) is a 128-bit composite of two independent
   64-bit hashes of the chunk text (collision odds ~n^2 / 2^128 —
   ~3e-15 at 10^12 chunks; documented seam, same class as md5-keyed
   dedup everywhere else in this repo).  ~40 B/row crosses the wire
   instead of the 60-600 B chunk text — the ~10x byte cut.
2. the ``hash(h1)`` exchange: every copy of a chunk text lands in
   one partition; a sort + ``is_first_distinct`` over (h1, h2) marks
   the global winner.  ONLY LOSERS leave the partition, as thin
   (doc_id, chunk_no) verdict rows — dup_fraction x n_chunks x 16 B.
3. verdict application, routed by measured loser count:
   - **broadcast path** (losers <= BROADCAST_MAX_LOSERS, the common
     prose-corpus case): ``ray.put`` the loser key table once; scan 2
     re-chunks each document INSIDE ``map_batches`` (documents are
     whole rows, so chunking never leaves the batch), anti-joins the
     broadcast keys, and reassembles per doc.  ZERO exchanges carry
     text; the corpus is scanned twice from storage (columnar reads),
     which at 100 TB is strictly cheaper than one all-to-all of the
     same bytes.
   - **co-group fallback** (loser set too big to broadcast): loser
     verdicts and re-chunked doc rows are unioned and co-grouped on
     ``hash(doc_id) % P`` — text crosses ONE exchange (1x corpus
     bytes, still half the round-4 design), verdicts join in-partition.

Every step is replayed exactly by one DuckDB query
(``chunk_dedup_oracle_sql``): same word regex, same chunk slicing,
same ROW_NUMBER-over-(doc_id, chunk_no) winner rule, same md5 of the
space-joined survivors — parity is the ``chunk_dedup_parity`` row of
``approx_metrics`` (the query surface itself sits past the driver's
50-query budget).

Reference scope note: the reference engine (KAZU) has no corpus-level
dedup; this belongs to the training-data operator family the engine
adds (SURVEY.md §2 "beyond the reference").
"""

from __future__ import annotations

import pyarrow as pa

from ..context import input_bytes, shuffle_partitions
from ..exchange import hash_reduce

_WORD_RE = r"[a-z0-9]+"
DEFAULT_K = 10

# broadcast the loser verdict table when it has at most this many rows
# (2 int64 columns -> ~32 MB at the cap); above it, the co-group
# fallback keeps every structure partition-bounded
BROADCAST_MAX_LOSERS = 2_000_000

CHUNK_DEDUP_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("n_chunks", pa.int64()),
        ("n_kept", pa.int64()),
        ("kept_frac", pa.float64()),
        ("kept_digest", pa.string()),
    ]
)


def _chunks_pl(batch: pa.Table, k: int):
    """(doc_id, chunk_no, chunk) polars frame: non-overlapping k-word
    chunks per document (trailing partial chunks are real chunks).
    Stays inside the batch — documents are whole input rows."""
    import polars as pl

    words = (
        pl.from_arrow(batch.select(["doc_id", "text"]))
        .with_columns(ws=pl.col("text").str.extract_all(_WORD_RE))
        .filter(pl.col("ws").list.len() >= 1)
        .select("doc_id", "ws")
        .explode("ws", empty_as_null=True)
        .rename({"ws": "word"})
        .with_columns(
            chunk_no=(pl.int_range(pl.len()).over("doc_id") // k).cast(pl.Int64)
        )
    )
    return (
        words.group_by("doc_id", "chunk_no", maintain_order=True)
        .agg(chunk=pl.col("word").str.join(" "))
    )


def _chunk_keys_batch(batch: pa.Table, k: int) -> pa.Table:
    """Scan-1 map: keys only — (h1, h2, doc_id, chunk_no).  The chunk
    text itself never leaves this task."""
    import polars as pl

    out = _chunks_pl(batch, k).with_columns(
        h1=pl.col("chunk").hash(seed=7),
        h2=pl.col("chunk").hash(seed=13),
    ).select("h1", "h2", "doc_id", "chunk_no")
    return out.to_arrow().cast(
        pa.schema(
            [
                ("h1", pa.uint64()),
                ("h2", pa.uint64()),
                ("doc_id", pa.int64()),
                ("chunk_no", pa.int64()),
            ]
        )
    )


def _losers_in_partition(group: pa.Table) -> pa.Table:
    """Within one h1 partition (which holds EVERY occurrence of each of
    its chunk texts): the global first occurrence per (h1, h2) —
    smallest (doc_id, chunk_no) — wins; emit ONLY the losers as thin
    (doc_id, chunk_no) verdict rows."""
    import polars as pl

    return (
        pl.from_arrow(group.select(["h1", "h2", "doc_id", "chunk_no"]))
        .sort("h1", "h2", "doc_id", "chunk_no")
        .filter(~pl.struct("h1", "h2").is_first_distinct())
        .select("doc_id", "chunk_no")
        .to_arrow()
    )


def _reassemble_pl(marked, keep_col: str = "keep"):
    """(doc_id, chunk_no, chunk, keep) polars frame -> per-doc output
    pandas frame (n_chunks, n_kept, kept_frac, kept_digest)."""
    import hashlib

    import polars as pl

    agg = (
        marked.sort("doc_id", "chunk_no")
        .group_by("doc_id", maintain_order=True)
        .agg(
            n_chunks=pl.len().cast(pl.Int64),
            n_kept=pl.col(keep_col).sum().cast(pl.Int64),
            kept_join=pl.col("chunk").filter(pl.col(keep_col)).str.join(" "),
        )
        .with_columns(kept_frac=pl.col("n_kept") / pl.col("n_chunks"))
    )
    pdf = agg.to_pandas()
    pdf["kept_digest"] = [
        hashlib.md5(s.encode()).hexdigest() if n else None
        for s, n in zip(pdf["kept_join"], pdf["n_kept"])
    ]
    return pdf[["doc_id", "n_chunks", "n_kept", "kept_frac", "kept_digest"]]


class _ApplyVerdictsBroadcast:
    """Actor: re-chunk each doc locally, anti-join the broadcast loser
    keys, reassemble.  Loser table fetched ONCE per actor in
    __init__."""

    def __init__(self, losers_ref, k: int):
        import polars as pl
        import ray

        tbl = ray.get(losers_ref)
        self.losers = pl.from_arrow(tbl).select("doc_id", "chunk_no").with_columns(
            _drop=pl.lit(True)
        )
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        import polars as pl

        marked = (
            _chunks_pl(batch, self.k)
            .join(self.losers, on=["doc_id", "chunk_no"], how="left")
            .with_columns(keep=pl.col("_drop").is_null())
        )
        out = _reassemble_pl(marked)
        return pa.Table.from_pandas(out, schema=CHUNK_DEDUP_SCHEMA,
                                    preserve_index=False)


def _make_doc_rows_batch(k: int):
    """Fallback scan-2 map: (doc_id, chunk_no, chunk, verdict) data rows
    for the co-group exchange."""
    import polars as pl

    def fn(batch: pa.Table) -> pa.Table:
        out = _chunks_pl(batch, k).with_columns(verdict=pl.lit(False)).select(
            "doc_id", "chunk_no", "chunk", "verdict"
        )
        return out.to_arrow().cast(_UNION_SCHEMA)

    return fn


_UNION_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("chunk_no", pa.int64()),
        ("chunk", pa.string()),
        ("verdict", pa.bool_()),
    ]
)


def _verdict_rows_batch(batch: pa.Table) -> pa.Table:
    """Fallback: loser (doc_id, chunk_no) rows cast onto the union
    schema (chunk NULL, verdict TRUE)."""
    n = batch.num_rows
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "chunk_no": batch.column("chunk_no"),
            "chunk": pa.nulls(n, pa.string()),
            "verdict": pa.array([True] * n, pa.bool_()),
        },
        schema=_UNION_SCHEMA,
    )


def _reassemble_with_verdicts(group: pa.Table) -> "object":
    """Co-group reducer: one doc_id partition holds every chunk row of
    its docs AND their loser verdicts; anti-join in-partition and
    reassemble."""
    import polars as pl

    df = pl.from_arrow(group.select(["doc_id", "chunk_no", "chunk", "verdict"]))
    data = df.filter(~pl.col("verdict"))
    drops = (
        df.filter(pl.col("verdict"))
        .select("doc_id", "chunk_no")
        .with_columns(_drop=pl.lit(True))
    )
    marked = data.join(drops, on=["doc_id", "chunk_no"], how="left").with_columns(
        keep=pl.col("_drop").is_null()
    )
    return _reassemble_pl(marked)


def chunk_dedup(
    docs_ds,
    k: int = DEFAULT_K,
    num_partitions: int | None = None,
):
    """docs (doc_id, text) -> per-doc (doc_id, n_chunks, n_kept,
    kept_frac, kept_digest) under global keep-first chunk dedup.

    Only hash keys cross the classification exchange; the verdict
    (loser) set is measured and either broadcast (text never moves) or
    co-group-joined (text crosses one exchange)."""
    import ray

    nparts = num_partitions or shuffle_partitions()

    keys = docs_ds.map_batches(lambda b: _chunk_keys_batch(b, k), batch_format="pyarrow")
    losers = hash_reduce(keys, ["h1"], _losers_in_partition, nparts).materialize()
    n_losers = losers.count()

    if n_losers <= BROADCAST_MAX_LOSERS:
        if n_losers:
            loser_tbl = pa.concat_tables(
                losers.iter_batches(batch_format="pyarrow", batch_size=None)
            ).select(["doc_id", "chunk_no"])
        else:
            loser_tbl = pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "chunk_no": pa.array([], pa.int64()),
                }
            )
        losers_ref = ray.put(loser_tbl)
        return docs_ds.map_batches(
            _ApplyVerdictsBroadcast,
            fn_constructor_args=(losers_ref, k),
            batch_format="pyarrow",
            concurrency=(1, 8),
        )

    # co-group fallback: verdicts + re-chunked doc rows, one exchange
    doc_rows = docs_ds.map_batches(_make_doc_rows_batch(k), batch_format="pyarrow")
    verdict_rows = losers.map_batches(_verdict_rows_batch, batch_format="pyarrow")
    return hash_reduce(
        doc_rows.union(verdict_rows), ["doc_id"], _reassemble_with_verdicts, nparts
    )


def q_chunk_dedup(sf_dir: str, k: int = DEFAULT_K):
    """Query surface: global chunk dedup over the documents corpus.
    Exact cross-engine parity (incl. the md5 digests of the surviving
    text) is the chunk_dedup_parity row of approx_metrics."""
    import ray.data as rd

    path = f"{sf_dir}/documents.parquet"
    ds = rd.read_parquet(path, columns=["doc_id", "text"])
    nparts = shuffle_partitions(estimated_bytes=input_bytes(path))
    return chunk_dedup(ds, k=k, num_partitions=nparts).sort("doc_id")


def chunk_dedup_oracle_sql(k: int = DEFAULT_K) -> str:
    """The full operator as one DuckDB query — same word regex, same
    non-overlapping slicing (list slices clamp at len like the Ray
    side's trailing partial chunk), same (doc_id, chunk_no) winner
    rule, same md5-of-space-joined-survivors digest."""
    return f"""
        WITH w AS (
          SELECT doc_id, regexp_extract_all(text, '{_WORD_RE}') AS ws
          FROM documents
        ),
        c AS (
          SELECT doc_id,
            unnest(list_transform(
              generate_series(1, CAST(ceil(len(ws) / {k}.0) AS BIGINT)),
              i -> struct_pack(
                chunk_no := i - 1,
                chunk := array_to_string(ws[(i-1)*{k}+1 : i*{k}], ' ')))) AS u
          FROM w WHERE len(ws) >= 1
        ),
        occ AS (
          SELECT doc_id,
                 CAST(u.chunk_no AS BIGINT) AS chunk_no,
                 u.chunk AS chunk,
                 ROW_NUMBER() OVER (
                   PARTITION BY u.chunk ORDER BY doc_id, u.chunk_no
                 ) AS rn
          FROM c
        )
        SELECT doc_id,
               CAST(COUNT(*) AS BIGINT) AS n_chunks,
               CAST(COUNT(*) FILTER (rn = 1) AS BIGINT) AS n_kept,
               CAST(COUNT(*) FILTER (rn = 1) AS DOUBLE)
                 / CAST(COUNT(*) AS DOUBLE) AS kept_frac,
               md5(string_agg(chunk, ' ' ORDER BY chunk_no)
                   FILTER (rn = 1)) AS kept_digest
        FROM occ
        GROUP BY doc_id
        ORDER BY doc_id
    """
