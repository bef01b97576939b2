"""Partition-wise hash join built on the exchange primitive.

Ray 2.49's native ``Dataset.join`` mis-handles the case where the first
shuffled block of an input is empty: the schema broadcast to join
aggregators is skipped but still marked done, so any empty partition
finalizes as a zero-column table and pyarrow's join raises ``No match
... for key field reference`` (see
ray/data/_internal/execution/operators/hash_shuffle.py:223 +
join.py:118).  Iterative algorithms (label propagation) routinely
produce small/empty blocks, so we need a join that cannot hit that path.

This helper tags rows of both sides with a side marker and their join
key in one shared column, unions them (schemas unified with typed
nulls) and runs ONE ``exchange.hash_reduce`` on that key — a vectorized
``pyarrow.Table.join`` inside each of ``num_partitions`` partitions.
Empty partitions simply never reach the reducer, so the failure mode is
structurally impossible.  Scale profile matches a hash shuffle join:
one all-to-all exchange, each partition materialized on one worker —
size ``num_partitions`` so max(partition) fits within worker heap.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .exchange import hash_reduce

_ARROW_JOIN_TYPE = {
    "inner": "inner",
    "left_outer": "left outer",
    "full_outer": "full outer",
    "left_semi": "left semi",
    "left_anti": "left anti",
}

_KEY = "__key"


def hash_join(
    left,
    right,
    *,
    left_on: str,
    right_on: str,
    how: str = "inner",
    num_partitions: int = 32,
    left_schema: pa.Schema | None = None,
    right_schema: pa.Schema | None = None,
):
    """Join two Datasets on int64 key columns, partition-wise.

    Right-side non-key column names must not collide with left column
    names (rename beforehand).  Output columns: all left columns, then
    the right's non-key columns (the right key is dropped, standard join
    semantics).

    Pass ``left_schema``/``right_schema`` explicitly when the inputs are
    lazy — ``Dataset.schema()`` on a lazy dataset triggers (partial)
    execution, which doubles the cost of shuffle-heavy upstreams.
    """
    # ray's Schema and pa.Schema both expose .names/.types
    l_schema = left_schema if left_schema is not None else left.schema()
    r_schema = right_schema if right_schema is not None else right.schema()
    l_names = list(l_schema.names)
    r_only = [c for c in r_schema.names if c != right_on]
    overlap = set(l_names) & set(r_only)
    if overlap:
        raise ValueError(f"right non-key columns collide with left: {overlap}")
    l_types = dict(zip(l_schema.names, l_schema.types))
    r_types = dict(zip(r_schema.names, r_schema.types))

    carrier = (
        [("__side", pa.int8()), (_KEY, r_types[right_on])]
        + [(c, l_types[c]) for c in l_names]
        + [(c, r_types[c]) for c in r_only]
    )
    carrier_types = dict(carrier)
    data_cols = [n for n, _ in carrier[2:]]

    def _tag_left(t: pa.Table) -> pa.Table:
        n = t.num_rows
        cols = {
            "__side": pa.array(np.zeros(n, dtype=np.int8)),
            _KEY: t.column(left_on).cast(carrier_types[_KEY]),
        }
        for c in data_cols:
            cols[c] = t.column(c) if c in l_names else pa.nulls(n, carrier_types[c])
        return pa.Table.from_pydict(cols)

    def _tag_right(t: pa.Table) -> pa.Table:
        n = t.num_rows
        cols = {
            "__side": pa.array(np.ones(n, dtype=np.int8)),
            _KEY: t.column(right_on),
        }
        for c in data_cols:
            cols[c] = t.column(c) if c in r_only else pa.nulls(n, carrier_types[c])
        return pa.Table.from_pydict(cols)

    arrow_how = _ARROW_JOIN_TYPE[how]
    out_cols = l_names + ([] if how in ("left_semi", "left_anti") else r_only)

    def _join_bucket(t: pa.Table) -> pa.Table:
        side = t.column("__side")
        lt = t.filter(pc.equal(side, 0)).select(l_names)
        rt = t.filter(pc.equal(side, 1)).select([_KEY] + r_only)
        joined = lt.join(rt, keys=[left_on], right_keys=[_KEY], join_type=arrow_how)
        return joined.select([c for c in out_cols if c in joined.column_names])

    tagged = left.map_batches(_tag_left, batch_format="pyarrow").union(
        right.map_batches(_tag_right, batch_format="pyarrow")
    )
    return hash_reduce(tagged, [_KEY], _join_bucket, num_partitions)
