"""Snapshot diff: incremental-reprocessing support.

The reference's stated goal is to "process and reprocess millions of
documents" (docs/introduction.rst:31-33); at 100-TB corpus scale a full
reprocess per crawl is the single largest avoidable cost.  This module
computes the delta between two corpus snapshots — which documents were
ADDED, REMOVED, CHANGED or UNCHANGED — so downstream pipelines (NER,
linking, dedup, quality) run only on `added | changed` and tombstone
`removed`.

Ray-Data-first shape: each side is fingerprinted per batch (md5 of the
content column, same fingerprint as text_analysis.fingerprint_batch and
the ``doc_fingerprint`` oracle), tagged with its side, UNIONed, and
classified inside ONE coarse hash(key) exchange — the per-partition
polars pivot sees every copy of each of its keys, so the classification
is exact.  Exchange volume is 2 rows x (key, 32-byte fp) per document,
independent of document size, because the fingerprint pass projects
columns at the read.

Cross-engine: the classification is a FULL OUTER JOIN on the key with
md5 equality, reproduced verbatim in DuckDB (tests/test_snapshot.py).
"""

from __future__ import annotations

import hashlib

import pyarrow as pa

from ..exchange import hash_reduce

DIFF_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("status", pa.string()),  # added | removed | changed | unchanged
        ("fp_old", pa.string()),
        ("fp_new", pa.string()),
    ]
)


def _fp_side(side: str, key: str, content: str):
    def fp(batch: pa.Table) -> pa.Table:
        import polars as pl

        fps = [
            hashlib.md5(t.encode("utf-8")).hexdigest()
            for t in batch.column(content).to_pylist()
        ]
        out = pl.DataFrame(
            {
                "doc_id": pl.from_arrow(batch.column(key)),
                "fp": fps,
                "side": [side] * len(fps),
            }
        )
        return out.to_arrow().cast(
            pa.schema(
                [("doc_id", pa.int64()), ("fp", pa.string()), ("side", pa.string())]
            )
        )

    return fp


def _classify(group: pa.Table) -> pa.Table:
    """Within one doc_id partition: pivot the (≤2) sides of each key
    and classify.  The partition holds every row of each of its keys."""
    import polars as pl

    df = pl.from_arrow(group.select(["doc_id", "fp", "side"]))
    wide = df.pivot(on="side", index="doc_id", values="fp")
    for c in ("old", "new"):
        if c not in wide.columns:
            wide = wide.with_columns(pl.lit(None, dtype=pl.String).alias(c))
    out = wide.with_columns(
        status=pl.when(pl.col("old").is_null())
        .then(pl.lit("added"))
        .when(pl.col("new").is_null())
        .then(pl.lit("removed"))
        .when(pl.col("old") == pl.col("new"))
        .then(pl.lit("unchanged"))
        .otherwise(pl.lit("changed"))
    ).rename({"old": "fp_old", "new": "fp_new"})
    return out.select("doc_id", "status", "fp_old", "fp_new").to_arrow().cast(
        DIFF_SCHEMA
    )


def snapshot_diff(
    old_ds,
    new_ds,
    key: str = "doc_id",
    content: str = "text",
    num_partitions: int | None = None,
):
    """Dataset of (doc_id, status, fp_old, fp_new) — the exact delta
    between two snapshots.  Feed ``status IN ('added','changed')`` to
    the expensive downstream stages; everything else is a cache hit."""
    from ..context import shuffle_partitions

    nparts = num_partitions or shuffle_partitions()
    tagged = old_ds.map_batches(
        _fp_side("old", key, content), batch_format="pyarrow"
    ).union(new_ds.map_batches(_fp_side("new", key, content), batch_format="pyarrow"))
    return hash_reduce(tagged, ["doc_id"], _classify, nparts)


def changed_keys(diff_ds):
    """Keys needing reprocessing (added or changed) — the input filter
    for the incremental run."""
    import pyarrow.compute as pc

    def keep(b: pa.Table) -> pa.Table:
        mask = pc.is_in(b.column("status"), value_set=pa.array(["added", "changed"]))
        return b.filter(mask).select(["doc_id", "status"])

    return diff_ds.map_batches(keep, batch_format="pyarrow")
