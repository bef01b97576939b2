"""A/B experiment readout — the two-proportion z-test every
product-analytics stack runs over an event log (variant assignment by
user-id hash, user-level conversion, pooled-variance z statistic).
Completes the statistics family next to grouped OLS
(extras/regression.py) and rolling anomaly flags (extras/windows.py).

Conversion = the user's FIRST event (by ts, event_id) is a purchase —
the "landing action converts" metric.  Unlike "ever purchased"
(which saturates to 1.0 as per-user event counts grow with corpus
size), the first-event rule keeps conversion scale-invariant, so the
z statistic stays well-defined at any sf.

Shape: user-level conversion is ONE combiner-first argmin reduction —
each block emits at most one (user, first_key, first_type) partial per
user in the block, a user-keyed groupby takes the global argmin, and
the per-variant roll-up is a 2-row aggregate.  At 10^12 events the
only corpus-sized exchange is the user groupby (the same key
sessionization already shuffles on).

Cross-engine exactness: counts are integers; cvr / pooled p / z are
each built from ONE double expression with oracle-matched operand
order (z = (cvr_a - cvr_b) / sqrt(p*(1-p)*(1/n_a + 1/n_b))), rounded
half-away at 6dp on both engines.

Reference seam: KAZU has no event-analytics operators (SURVEY §2l
beyond-the-reference surface, next to funnel/retention in
extras/funnel.py).
"""
from __future__ import annotations

import pyarrow as pa

CONVERSION_EVENT = "purchase"

RESULT_COLS = [
    "n_a", "n_b", "conv_a", "conv_b", "cvr_a", "cvr_b", "lift", "z",
]


def q_ab_test(sf_dir: str):
    """One-row experiment readout over events: variant = user_id % 2,
    conversion = the user's first event (ts, event_id order) is a
    CONVERSION_EVENT."""
    import pandas as pd
    import polars as pl
    import ray.data as rd

    from ..functions.rounding import round_half_away, sql_div

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type", "ts", "event_id"]
    )

    def partial(t: pa.Table) -> pa.Table:
        out = (
            pl.from_arrow(t)
            .sort(["user_id", "ts", "event_id"])
            .group_by("user_id", maintain_order=True)
            .first()
            .with_columns(
                conv=(pl.col("event_type") == CONVERSION_EVENT).cast(pl.Int64)
            )
            .select("user_id", "ts", "event_id", "conv")
        )
        return out.to_arrow()

    def first_of_group(g: pd.DataFrame) -> pd.DataFrame:
        return (
            g.sort_values(["user_id", "ts", "event_id"])
            .groupby("user_id", as_index=False)
            .first()[["user_id", "conv"]]
        )

    per_user = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("user_id")
        .map_groups(first_of_group, batch_format="pandas")
    )

    def to_variant(t: pa.Table) -> pa.Table:
        import numpy as np

        uid = t.column("user_id").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "variant": pa.array(
                    np.where(uid % 2 == 0, "A", "B").tolist(), pa.string()
                ),
                "one": pa.array(np.ones(t.num_rows, np.int64)),
                "conv": t.column("conv"),
            }
        )

    from ray.data.aggregate import Sum

    rolled = {
        r["variant"]: (int(r["n"]), int(r["c"]))
        for r in per_user.map_batches(to_variant, batch_format="pyarrow")
        .groupby("variant")
        .aggregate(Sum("one", alias_name="n"), Sum("conv", alias_name="c"))
        .take_all()
    }
    import math

    n_a, conv_a = rolled.get("A", (0, 0))
    n_b, conv_b = rolled.get("B", (0, 0))
    # an empty variant or a pooled p of 0 / 1 divides by zero: the
    # oracle's answer is NULL, not an error
    cvr_a = sql_div(conv_a, n_a)
    cvr_b = sql_div(conv_b, n_b)
    p = sql_div(conv_a + conv_b, n_a + n_b)
    z = sql_div(
        cvr_a - cvr_b,
        math.sqrt(p * (1 - p) * (sql_div(1.0, n_a) + sql_div(1.0, n_b))),
    )
    return pd.DataFrame(
        [
            {
                "n_a": n_a,
                "n_b": n_b,
                "conv_a": conv_a,
                "conv_b": conv_b,
                "cvr_a": float(round_half_away(cvr_a, 6)),
                "cvr_b": float(round_half_away(cvr_b, 6)),
                "lift": float(round_half_away(cvr_a - cvr_b, 6)),
                "z": float(round_half_away(z, 6)),
            }
        ]
    )


def ab_test_oracle_sql() -> str:
    """Same variant rule, same user-level conversion, same operand
    order in cvr / pooled p / z, same half-away 6dp round."""
    return f"""
        WITH fe AS (
          SELECT user_id, event_type,
                 ROW_NUMBER() OVER (
                   PARTITION BY user_id ORDER BY ts, event_id
                 ) AS rn
          FROM events
        ),
        per_user AS (
          SELECT user_id,
                 CASE WHEN event_type = '{CONVERSION_EVENT}'
                      THEN 1 ELSE 0 END AS conv
          FROM fe WHERE rn = 1
        ),
        v AS (
          SELECT CASE WHEN user_id % 2 = 0 THEN 'A' ELSE 'B' END AS variant,
                 conv
          FROM per_user
        ),
        agg AS (
          SELECT
            SUM(CASE WHEN variant = 'A' THEN 1 ELSE 0 END) AS n_a,
            SUM(CASE WHEN variant = 'B' THEN 1 ELSE 0 END) AS n_b,
            SUM(CASE WHEN variant = 'A' THEN conv ELSE 0 END) AS conv_a,
            SUM(CASE WHEN variant = 'B' THEN conv ELSE 0 END) AS conv_b
          FROM v
        ),
        s AS (
          SELECT n_a, n_b, conv_a, conv_b,
                 CAST(conv_a AS DOUBLE) / n_a AS cvr_a,
                 CAST(conv_b AS DOUBLE) / n_b AS cvr_b,
                 CAST(conv_a + conv_b AS DOUBLE) / (n_a + n_b) AS p
          FROM agg
        )
        SELECT CAST(n_a AS BIGINT) AS n_a, CAST(n_b AS BIGINT) AS n_b,
               CAST(conv_a AS BIGINT) AS conv_a,
               CAST(conv_b AS BIGINT) AS conv_b,
               ROUND(cvr_a, 6) AS cvr_a, ROUND(cvr_b, 6) AS cvr_b,
               ROUND(cvr_a - cvr_b, 6) AS lift,
               ROUND((cvr_a - cvr_b)
                     / sqrt(p * (1 - p)
                            * (CAST(1 AS DOUBLE) / n_a
                               + CAST(1 AS DOUBLE) / n_b)), 6) AS z
        FROM s
    """
