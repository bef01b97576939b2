"""Data-quality constraint audit — Deequ-style declarative checks
(referential integrity, ranges, null-freedom) evaluated exactly over
the table set in one pass per constraint.

Where extras/profile.py PROFILES columns (stats + distinctness), this
operator VERIFIES declared invariants and reports exact violation
counts — the gate a production ingest runs before promoting a
snapshot (Schelter et al. 2018, "Automating Large-Scale Data Quality
Verification" — Deequ's published design).

Check kinds:

* **foreign key** — child key must exist in the parent key set: one
  partitioned ``left_anti`` hash join (kazu_ray/joins.py) per check,
  exact at every parent size; duplicate parent keys cannot change an
  anti-join, so no distinct-parents pass runs first.
* **range / not-null** — one vectorised ``pyarrow.compute`` pass,
  zero shuffle, fixed-size count partials.

Every range / not-null check ships ONE (n, violations) partial per
block and the driver folds a partitions-bounded table; a foreign-key
check moves only its two key columns through one exchange and counts
the anti-join survivors.

Exact SQL oracle: each constraint is one LEFT-JOIN-IS-NULL or
filter-count subquery, UNION ALL'd — row-for-row including zero
violation counts (zero is evidence the check ran, not absence of
evidence: n_rows must still match the table).

Reference scope note: KAZU validates ontology curations at build time
(ontology/curations.py); this is the corpus-side analogue for the
training-data family (SURVEY.md §2l).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

AUDIT_SCHEMA = pa.schema(
    [
        ("constraint_name", pa.string()),
        ("n_rows", pa.int64()),
        ("n_violations", pa.int64()),
    ]
)

# (name, child_table, child_key, parent_table, parent_key)
FK_CHECKS = (
    ("fk_customer_nationkey", "customer", "c_nationkey", "nation", "n_nationkey"),
    ("fk_lineitem_orderkey", "lineitem", "l_orderkey", "orders", "o_orderkey"),
    ("fk_orders_custkey", "orders", "o_custkey", "customer", "c_custkey"),
)

# (name, table, column, SQL predicate for a VIOLATION, arrow predicate)
RULE_CHECKS = (
    (
        "notnull_documents_text",
        "documents",
        "text",
        "text IS NULL",
        lambda t: pc.is_null(t.column("text")),
    ),
    (
        "range_events_value_cap",
        "events",
        "value",
        "value > 400",
        lambda t: pc.greater(t.column("value"), pa.scalar(400.0)),
    ),
    (
        "range_orders_totalprice_pos",
        "orders",
        "o_totalprice",
        "o_totalprice <= 0",
        lambda t: pc.less_equal(t.column("o_totalprice"), pa.scalar(0.0)),
    ),
)


def _count_totals(ds):
    """Fold a dataset of (n, viol) partial rows into two ints."""
    tot = ds.sum(["n", "viol"])
    return int(tot["sum(n)"]), int(tot["sum(viol)"])


def _fk_violations(
    sf_dir: str,
    child_table: str,
    child_key: str,
    parent_table: str,
    parent_key: str,
) -> tuple[int, int]:
    """(child rows, child rows whose key is absent from the parent):
    a partitioned ``left_anti`` hash join.  Its explicit schemas also
    carry an empty parent table, where every child row violates."""
    import ray.data as rd

    from ..joins import hash_join

    # hash_join keys are int64 by contract; cast both sides
    def to64(col):
        def f(t: pa.Table) -> pa.Table:
            return t.set_column(
                t.schema.get_field_index(col), col,
                pc.cast(t.column(col), pa.int64()),
            )

        return f

    child = rd.read_parquet(f"{sf_dir}/{child_table}.parquet", columns=[child_key])
    parents = rd.read_parquet(
        f"{sf_dir}/{parent_table}.parquet", columns=[parent_key]
    )
    anti = hash_join(
        child.map_batches(to64(child_key), batch_format="pyarrow"),
        parents.map_batches(to64(parent_key), batch_format="pyarrow"),
        left_on=child_key,
        right_on=parent_key,
        how="left_anti",
        left_schema=pa.schema([(child_key, pa.int64())]),
        right_schema=pa.schema([(parent_key, pa.int64())]),
    )
    return child.count(), anti.count()


def q_constraint_audit(sf_dir: str):
    """Query surface: one exact (constraint_name, n_rows, n_violations)
    row per declared check, sorted.  Exact SQL parity via
    constraint_audit_oracle_sql."""
    import pandas as pd
    import ray.data as rd

    rows = []
    for name, child_t, child_k, parent_t, parent_k in FK_CHECKS:
        n, viol = _fk_violations(sf_dir, child_t, child_k, parent_t, parent_k)
        rows.append((name, n, viol))

    for name, table, col, _sql_pred, arrow_pred in RULE_CHECKS:
        # prune the read to the ONE column the check touches
        ds = rd.read_parquet(f"{sf_dir}/{table}.parquet", columns=[col])

        def partial(t: pa.Table, pred=arrow_pred) -> pa.Table:
            bad = pred(t)
            return pa.table(
                {
                    "n": pa.array([t.num_rows], pa.int64()),
                    "viol": pa.array(
                        [int(pc.sum(bad).as_py() or 0)], pa.int64()
                    ),
                }
            )

        n, viol = _count_totals(
            ds.map_batches(partial, batch_format="pyarrow")
        )
        rows.append((name, n, viol))

    out = pd.DataFrame(
        rows, columns=["constraint_name", "n_rows", "n_violations"]
    ).sort_values("constraint_name").reset_index(drop=True)
    return pa.Table.from_pandas(out, schema=AUDIT_SCHEMA, preserve_index=False)


def constraint_audit_oracle_sql() -> str:
    parts = []
    for name, child_t, child_k, parent_t, parent_k in FK_CHECKS:
        parts.append(
            f"""
            SELECT '{name}' AS constraint_name,
                   (SELECT COUNT(*) FROM {child_t})::BIGINT AS n_rows,
                   (SELECT COUNT(*) FROM {child_t} c
                    LEFT JOIN (SELECT DISTINCT {parent_k} FROM {parent_t}) p
                    ON c.{child_k} = p.{parent_k}
                    WHERE p.{parent_k} IS NULL)::BIGINT AS n_violations
            """
        )
    for name, table, _col, sql_pred, _arrow_pred in RULE_CHECKS:
        parts.append(
            f"""
            SELECT '{name}' AS constraint_name,
                   (SELECT COUNT(*) FROM {table})::BIGINT AS n_rows,
                   (SELECT COUNT(*) FROM {table} WHERE {sql_pred})::BIGINT
                       AS n_violations
            """
        )
    return " UNION ALL ".join(parts) + " ORDER BY constraint_name"
