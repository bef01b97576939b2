"""Inter-annotator agreement (Cohen's kappa, Cohen 1960) — the quality
gate every human-annotation pipeline runs before trusting labels
(KAZU's Label Studio interchange produces exactly this kind of
dual-annotator data; chance-corrected agreement is how you decide the
guidelines are tight enough to train on).

The engine-side operator is the confusion-matrix reduction: per-batch
``group_by(label_a, label_b).len()`` partials (combiner-first — each
block reduces to at most |L|² rows before any exchange), one bounded
groupby-sum, then the kappa arithmetic over the |L|²-row matrix on the
driver.  At 10^12 rows the exchange carries |L|² integers per block
and nothing else.

Cross-engine exactness: counts are integers; po / pe / kappa are each
produced by ONE double division over integer sums in the same order as
the oracle SQL (po = diag/n, pe = S/(n*n), kappa = (po-pe)/(1-pe)), so
the doubles are bit-identical before the shared half-away 6dp round.

The two synthetic annotators are derived deterministically from real
corpus rows with the SAME arithmetic in the oracle (the urls.py
pattern): annotator A buckets documents by length; annotator B agrees
except on deterministic doc_id strata, where it shifts one / two
classes — manufacturing a realistic ~80% agreement matrix from real
data with no external inputs.

Reference seam: complements sources/label_studio.py (SURVEY §2a);
the reference itself computes no agreement statistics (§2l
beyond-the-reference surface).
"""
from __future__ import annotations

import pyarrow as pa

LABELS = ("short", "mid", "long")  # ordinal class order for the shift


def _pl():
    import polars as pl

    return pl


def annotator_exprs():
    """Polars expressions for (ann_a, ann_b), mirrored token-for-token
    by the oracle SQL."""
    pl = _pl()
    n = pl.col("n_chars")
    idx_a = (
        pl.when(n >= 400).then(2).when(n >= 200).then(1).otherwise(0)
    ).cast(pl.Int64)
    shift = (
        pl.when(pl.col("doc_id") % 7 == 0)
        .then(1)
        .when(pl.col("doc_id") % 13 == 0)
        .then(2)
        .otherwise(0)
    ).cast(pl.Int64)
    idx_b = (idx_a + shift) % 3

    def to_label(idx):
        return (
            pl.when(idx == 0)
            .then(pl.lit(LABELS[0]))
            .when(idx == 1)
            .then(pl.lit(LABELS[1]))
            .otherwise(pl.lit(LABELS[2]))
        )

    return to_label(idx_a).alias("label_a"), to_label(idx_b).alias("label_b")


CONFUSION_SCHEMA = pa.schema(
    [("label_a", pa.string()), ("label_b", pa.string()), ("n", pa.int64())]
)


def confusion_counts(docs_ds):
    """(label_a, label_b, n) — combiner-first: ≤ |L|² rows leave each
    block, one bounded groupby-sum merges them."""
    from ray.data.aggregate import Sum

    pl = _pl()
    ea, eb = annotator_exprs()

    def partial(t: pa.Table) -> pa.Table:
        out = (
            pl.from_arrow(t.select(["doc_id", "n_chars"]))
            .with_columns(ea, eb)
            .group_by("label_a", "label_b")
            .len()
            .with_columns(n=pl.col("len").cast(pl.Int64))
            .select("label_a", "label_b", "n")
        )
        return out.to_arrow().cast(CONFUSION_SCHEMA)

    return (
        docs_ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["label_a", "label_b"])
        .aggregate(Sum("n", alias_name="n"))
    )


def q_annotator_agreement(sf_dir: str):
    """Confusion matrix + chance-corrected agreement: one row per
    (label_a, label_b) cell carrying the cell count and the global
    po / pe / kappa scalars (the SQL-window idiom, so every row is
    self-describing).  Exact integer counts; one double division per
    scalar, mirrored by the oracle."""
    import pandas as pd
    import ray.data as rd

    from ..functions.rounding import round_half_away, sql_div

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
    )
    cells = confusion_counts(ds).to_pandas()

    n = int(cells["n"].sum())
    diag = int(cells.loc[cells.label_a == cells.label_b, "n"].sum())
    row_tot = cells.groupby("label_a")["n"].sum()
    col_tot = cells.groupby("label_b")["n"].sum()
    s = int(
        sum(
            int(row_tot.get(lb, 0)) * int(col_tot.get(lb, 0))
            for lb in LABELS
        )
    )
    po = sql_div(diag, n)
    pe = sql_div(s, n * n)
    kappa = sql_div(po - pe, 1 - pe)  # NULL when pe == 1, as in the oracle
    out = cells.sort_values(["label_a", "label_b"]).reset_index(drop=True)
    out["po"] = float(round_half_away(po, 6))
    out["pe"] = float(round_half_away(pe, 6))
    out["kappa"] = float(round_half_away(kappa, 6))
    return pd.DataFrame(out, columns=["label_a", "label_b", "n", "po", "pe", "kappa"])


def agreement_oracle_sql() -> str:
    """Same annotator derivation, same integer sums, same division
    order, same half-away 6dp round."""
    return """
        WITH lab AS (
          SELECT
            CASE WHEN n_chars >= 400 THEN 'long'
                 WHEN n_chars >= 200 THEN 'mid'
                 ELSE 'short' END AS label_a,
            CASE (
              (CASE WHEN n_chars >= 400 THEN 2
                    WHEN n_chars >= 200 THEN 1 ELSE 0 END)
              + (CASE WHEN doc_id % 7 = 0 THEN 1
                      WHEN doc_id % 13 = 0 THEN 2 ELSE 0 END)
            ) % 3
              WHEN 0 THEN 'short' WHEN 1 THEN 'mid' ELSE 'long' END
              AS label_b
          FROM documents
        ),
        cells AS (
          SELECT label_a, label_b, COUNT(*) AS n
          FROM lab GROUP BY label_a, label_b
        ),
        tot AS (SELECT SUM(n) AS n_all FROM cells),
        diag AS (
          SELECT COALESCE(SUM(n), 0) AS d FROM cells WHERE label_a = label_b
        ),
        marg AS (
          SELECT COALESCE(ra.r, 0) * COALESCE(ca.c, 0) AS rc
          FROM (VALUES ('short'), ('mid'), ('long')) AS l(lb)
          LEFT JOIN (
            SELECT label_a, SUM(n) AS r FROM cells GROUP BY label_a
          ) ra ON ra.label_a = l.lb
          LEFT JOIN (
            SELECT label_b, SUM(n) AS c FROM cells GROUP BY label_b
          ) ca ON ca.label_b = l.lb
        ),
        scal AS (
          SELECT
            CAST(diag.d AS DOUBLE) / tot.n_all AS po,
            CAST((SELECT SUM(rc) FROM marg) AS DOUBLE)
              / (tot.n_all * tot.n_all) AS pe
          FROM diag, tot
        )
        SELECT label_a, label_b, CAST(n AS BIGINT) AS n,
               ROUND(po, 6) AS po, ROUND(pe, 6) AS pe,
               ROUND((po - pe) / (1 - pe), 6) AS kappa
        FROM cells CROSS JOIN scal
        ORDER BY label_a, label_b
    """
