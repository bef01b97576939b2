"""Supervised multinomial Naive-Bayes text classifier — the trained
document-labeling primitive behind quality/domain/language routing in
web-crawl curation (fastText-style supervised classification; CCNet §3
and the GPT-3 quality filter are this exact shape: fit on labeled
docs, score the corpus, route on the argmax).

Distributed fit over a labeled corpus column, broadcast apply, and —
because fit AND scoring are plain counting + add-one smoothing — the
ENTIRE train+classify path replays as one DuckDB statement:
`nb_classifier` is a full-oracle query, not just a gate.  The query
surface trains on the documents table's ``source`` label (20 classes,
5% majority baseline; the synthetic per-source token distributions
carry real signal — train accuracy lands ~5x above chance, gated in
approx_metrics).  The ``lang`` column is NOT learnable by design
(every synthetic language shares one 31-word vocabulary; the heuristic
langid in extras/text_analysis.py covers that surface).

Shape:
1. vocabulary: the global top-V tokens by (count desc, token asc) via
   :func:`kazu_ray.extras.bpe.word_counts` — the BPE fit's bounded
   per-partition-truncation exchange (driver state hard-capped).
2. per-(lang, token) counts restricted to the kept vocab: per-batch
   polars combiner emits ≤ |langs| x V rows per block, one bounded
   groupby-sum, driver ingests ≤ |langs| x V integers.
3. log-probability table lp(lang, token) = ln((c+1)/(tot_lang+V)) and
   priors ln(n_lang/n) built on the driver (|langs| x V rows),
   broadcast via ``ray.put``.
4. scoring: one streaming pass — explode tokens, inner-join the kept
   vocab, join lp, per-(doc, lang) sum + prior, argmax on the 4dp
   score with lang-asc tie-break.

Cross-engine determinism: counts are integers; each ln sees one double
division with oracle-matched operand order; per-doc sums differ across
engines only by float64 summation order (~1e-13 relative), absorbed by
the shared half-away 4dp rounding — the lm_perplexity precedent
(quality.py).

Reference seam: KAZU has no corpus-level classifier training; SURVEY
§2l beyond-the-reference surface.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa

NB_TOP_V = 512
_WORD_RE = r"[a-z0-9]+"

SCORE_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("label_true", pa.string()),
        ("pred_label", pa.string()),
        ("score", pa.float64()),
        ("correct", pa.bool_()),
    ]
)


def fit_nb(docs_ds, label: str = "source", top_v: int = NB_TOP_V):
    """(lp_frame, priors, kept) — the broadcastable model.  lp_frame
    is a polars frame (label, token, lp) of |classes| x V rows; priors
    maps class -> ln(n_class / n_docs)."""
    import math

    import polars as pl
    from ray.data.aggregate import Sum

    from .bpe import word_counts

    wc = word_counts(docs_ds, top_v=top_v)
    kept = (
        wc.sort_values(["n", "word"], ascending=[False, True])
        .head(top_v)["word"]
        .tolist()
    )
    kept_set = set(kept)
    v_eff = len(kept)

    def partial(t: pa.Table) -> pa.Table:
        out = (
            pl.from_arrow(t.select([label, "text"]))
            .with_columns(
                tok=pl.col("text").str.to_lowercase().str.extract_all(_WORD_RE)
            )
            .explode("tok", empty_as_null=True)
            .drop_nulls("tok")
            .filter(pl.col("tok").is_in(list(kept_set)))
            .group_by(label, "tok")
            .len()
            .with_columns(n=pl.col("len").cast(pl.Int64))
            .rename({label: "lang"}).select("lang", "tok", "n")
        )
        return out.to_arrow().cast(
            pa.schema([("lang", pa.string()), ("tok", pa.string()), ("n", pa.int64())])
        )

    lcnt = (
        docs_ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["lang", "tok"])
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
    )
    counts = docs_ds.groupby(label).count().take_all()
    langs = sorted(r[label] for r in counts)
    n_docs = docs_ds.count()
    nd = {r[label]: r["count()"] for r in counts}
    priors = {lg: math.log(nd[lg] / n_docs) for lg in langs}

    tot = lcnt.groupby("lang")["n"].sum().to_dict()
    cmap = {(r.lang, r.tok): int(r.n) for r in lcnt.itertuples()}
    rows = [
        (
            lg,
            tk,
            math.log(
                (cmap.get((lg, tk), 0) + 1.0) / (tot.get(lg, 0) + float(v_eff))
            ),
        )
        for lg in langs
        for tk in kept
    ]
    lp_frame = pl.DataFrame(
        {
            "lang": [r[0] for r in rows],
            "token": [r[1] for r in rows],
            "lp": [r[2] for r in rows],
        }
    )
    return lp_frame, priors, kept


class NbScorer:
    """Actor-pool UDF: documents -> one classified row per doc.  Model
    state (lp table + priors) fetched from the object store once per
    actor."""

    def __init__(self, model_ref, label: str = "source"):
        import ray

        lp, priors = ray.get(model_ref)
        self.lp = lp
        self.priors = priors
        self.label = label

    def __call__(self, batch: pa.Table) -> pa.Table:
        import polars as pl

        from ..functions.rounding import round_half_away

        df = pl.from_arrow(batch.select(["doc_id", self.label, "text"])).rename({self.label: "lang"})
        sums = (
            df.select("doc_id", "text")
            .with_columns(
                tok=pl.col("text").str.to_lowercase().str.extract_all(_WORD_RE)
            )
            .select("doc_id", "tok")
            .explode("tok", empty_as_null=True)
            .drop_nulls("tok")
            .rename({"tok": "token"})
            .join(self.lp, on="token", how="inner")
            .group_by("doc_id", "lang")
            .agg(s=pl.col("lp").sum())
        )
        langs = sorted(self.priors)
        base = df.select("doc_id").join(
            pl.DataFrame({"lang": langs}), how="cross"
        )
        scored = (
            base.join(sums, on=["doc_id", "lang"], how="left")
            .with_columns(s=pl.col("s").fill_null(0.0))
            .with_columns(
                prior=pl.col("lang").replace_strict(self.priors, default=0.0)
            )
            .with_columns(score=pl.col("prior") + pl.col("s"))
        )
        pdf = scored.select("doc_id", "lang", "score").to_pandas()
        pdf["score"] = round_half_away(pdf["score"].to_numpy(), 4)
        pick = (
            pdf.sort_values(
                ["doc_id", "score", "lang"], ascending=[True, False, True]
            )
            .groupby("doc_id", as_index=False)
            .first()
            .rename(columns={"lang": "pred_label"})
        )
        truth = df.select("doc_id", "lang").to_pandas().rename(
            columns={"lang": "label_true"}
        )
        out = truth.merge(pick, on="doc_id")
        out["correct"] = out["pred_label"] == out["label_true"]
        return pa.Table.from_pandas(
            out[["doc_id", "label_true", "pred_label", "score", "correct"]],
            schema=SCORE_SCHEMA,
            preserve_index=False,
        )


def q_nb_classifier(sf_dir: str, label: str = "source", top_v: int = NB_TOP_V):
    """Full train+classify surface over documents; one row per doc."""
    import ray
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", label, "text"]
    )
    lp, priors, _ = fit_nb(ds, label=label, top_v=top_v)
    model_ref = ray.put((lp, priors))
    return ds.map_batches(
        NbScorer,
        fn_constructor_args=(model_ref, label),
        batch_size=256,
        concurrency=(1, 4),
        batch_format="pyarrow",
    ).sort("doc_id")


def nb_classifier_oracle_sql(label: str = "source", top_v: int = NB_TOP_V) -> str:
    """The whole fit+score+argmax path as one DuckDB statement: same
    regex, same top-V tie order, same add-one smoothing, same prior,
    same 4dp rounding, same (score DESC, lang ASC) argmax."""
    return f"""
        WITH tok AS (
          SELECT doc_id,
                 unnest(regexp_extract_all(lower(text), '{_WORD_RE}')) AS token
          FROM documents
        ),
        cnt AS (SELECT token, COUNT(*) AS c FROM tok GROUP BY token),
        top AS (
          SELECT token FROM cnt ORDER BY c DESC, token LIMIT {top_v}
        ),
        veff AS (SELECT COUNT(*) AS v FROM top),
        langs AS (SELECT DISTINCT {label} AS lang FROM documents),
        prior AS (SELECT {label} AS lang, COUNT(*) AS nd FROM documents GROUP BY {label}),
        nd AS (SELECT COUNT(*) AS n FROM documents),
        lcnt AS (
          SELECT d.{label} AS lang, t.token, COUNT(*) AS c
          FROM tok t
          JOIN documents d USING (doc_id)
          JOIN top USING (token)
          GROUP BY d.{label}, t.token
        ),
        ltot AS (SELECT lang, SUM(c) AS tot FROM lcnt GROUP BY lang),
        lp AS (
          SELECT l.lang, tp.token,
                 ln((COALESCE(c.c, 0) + 1.0)
                    / (COALESCE(lt.tot, 0) + CAST(v.v AS DOUBLE))) AS lp
          FROM langs l
          CROSS JOIN top tp
          CROSS JOIN veff v
          LEFT JOIN lcnt c ON c.lang = l.lang AND c.token = tp.token
          LEFT JOIN ltot lt ON lt.lang = l.lang
        ),
        sums AS (
          SELECT t.doc_id, lp.lang, SUM(lp.lp) AS s
          FROM tok t JOIN lp ON lp.token = t.token
          GROUP BY t.doc_id, lp.lang
        ),
        scored AS (
          SELECT d.doc_id, d.{label} AS label_true, l.lang,
                 ROUND(
                   ln(CAST(p.nd AS DOUBLE) / n.n) + COALESCE(s.s, 0), 4
                 ) AS score
          FROM documents d
          CROSS JOIN langs l
          JOIN prior p ON p.lang = l.lang
          CROSS JOIN nd n
          LEFT JOIN sums s ON s.doc_id = d.doc_id AND s.lang = l.lang
        ),
        pick AS (
          SELECT doc_id, label_true, lang AS pred_label, score,
                 ROW_NUMBER() OVER (
                   PARTITION BY doc_id ORDER BY score DESC, lang ASC
                 ) AS rn
          FROM scored
        )
        SELECT doc_id, label_true, pred_label, score,
               pred_label = label_true AS correct
        FROM pick WHERE rn = 1 ORDER BY doc_id
    """
