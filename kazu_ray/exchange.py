"""The one hash exchange: partition rows by key, reduce each partition.

Every keyed reduction that has to co-locate all rows of a key (edge
merge, node dedup, gram and token counts, pair dedup, joins, per-user
windows, ...) goes through :func:`hash_reduce`.  It appends a coarse
integer partition ``hash(keys) % n_parts`` (:func:`hash_partition`),
groups the dataset on that one column, and calls ``fn`` once per
partition with a pyarrow table holding EVERY row of each of its keys;
``fn`` then does the per-key work vectorized (pyarrow / polars
``group_by``, joins, sorts) over many keys at once.

Why a coarse int partition instead of ``groupby(keys)``: one Ray group
per key is one reducer call per key, which is task overhead at corpus
key counts, and Ray's sort-based aggregate on the real string keys
measured 6-20x slower than sorting one small int column and aggregating
inside ~``n_parts`` groups (8-13 s vs ~1.5 s for the sf0.1 edge merge;
15-20x on the passage gram counts).

Co-partitioning: two datasets that must meet per key are unioned first
and partitioned by one call, so both sides get the same partition ids.

Mechanism: ``groupby().map_groups``, a sort shuffle whose reduce
operator is ``SortReduce`` (the benchmark's ``exchange.partition_skew``
reads that operator's row counts).  Measuring ``repartition(keys=...)``
against it is a change to :func:`hash_reduce` only.
"""

from __future__ import annotations

import pyarrow as pa

PART = "__part"
_SEED = 7


def hash_partition(t: pa.Table, keys: list[str], n_parts: int) -> pa.Array:
    """int64 partition id per row: ``hash(keys) % n_parts``.

    One key hashes its own column (``pl.col(k).hash(seed=7)``); several
    keys hash their ``\\x1f``-joined string.  A null key (any null, for
    several keys) hashes to one fixed partition, so its rows are kept."""
    import polars as pl

    if t.num_rows == 0:
        return pa.array([], pa.int64())
    h = pl.col(keys[0]) if len(keys) == 1 else pl.concat_str(keys, separator="\x1f")
    return (
        pl.from_arrow(t.select(keys))
        .select(p=(h.hash(seed=_SEED) % n_parts).cast(pl.Int64))["p"]
        .to_arrow()
    )


def hash_reduce(ds, keys: list[str], fn, n_parts: int):
    """``fn`` over each ``hash(keys) % n_parts`` partition of ``ds``.

    ``fn`` receives a pyarrow Table (without the partition column) that
    holds every row of each key in the partition, and returns a pyarrow
    Table or pandas DataFrame.  Empty partitions never reach ``fn``."""

    def tag(t: pa.Table) -> pa.Table:
        return t.append_column(PART, hash_partition(t, keys, n_parts))

    def reduce(group: pa.Table):
        return fn(group.drop_columns([PART]))

    return (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby(PART)
        .map_groups(reduce, batch_format="pyarrow")
    )
