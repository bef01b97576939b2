"""Interpolated Kneser-Ney bigram LM perplexity (Kneser & Strunk 1995;
Chen & Goodman 1999 formulation with one absolute discount).

CCNet-grade corpus filtering ranks documents by LM perplexity; the
unigram variant lives in extras/quality.unigram_lm_scores.  This is the
bigram upgrade — same two-pass streaming shape, one more count table:

    P(w | v) = max(c(v,w) - D, 0) / c(v)
             + D * N1+(v,.) / c(v) * P_cont(w)
    P_cont(w) = (N1+(., w) + 1) / (N1+(..) + V_eff + 2)

with D = 0.75, a closed vocabulary of the top-V corpus unigrams (every
other token maps to ``<unk>`` BEFORE counting, so the model is exact
over a bounded alphabet), ``<s>`` padding each document start, and
add-one smoothing on the continuation distribution (V_eff + 2 covers
vocab + <unk> + the never-continuing case).  Scoring the training
corpus itself means every scored bigram was counted, so probabilities
are strictly positive by construction.

Scale story (all passes streaming):

1. vocab — the unigram top-V pass shared with the unigram LM
   (combiner partials, coarse hash(token) exchange, per-partition
   local top-V + total marker, partition-bounded driver merge).
2. bigram counts — per batch: tokens map to the broadcast vocab (or
   <unk>), pairs form WITHIN the batch's rows (a document never spans
   batches), per-batch combiner collapses to (prev, cur, n) partials,
   ONE coarse hash(prev, cur) exchange, vectorized per-partition sums.
   The result is the MODEL — bounded by distinct mapped bigram TYPES
   (≤ (V+2)^2 worst-case, vastly smaller in practice), not by corpus
   size.  Context stats (c(v), N1+(v,.)) and continuation stats
   (N1+(., w)) derive from per-partition partials whose driver merge
   is vocab-bounded by construction.
3. score — the model broadcasts once via ``ray.put`` (the KenLM
   deployment pattern: the LM rides along, the corpus streams);
   an actor pool joins each batch's bigrams against it, fully
   vectorized in polars.  If the bigram table ever outgrew a node,
   scoring shards by hash(prev) and the formula is unchanged.

Cross-engine: DuckDB recomputes the ENTIRE pipeline — vocab selection,
<unk> mapping, <s> padding via LAG over zip-unnested positions, all
four count tables and the interpolated probability with the identical
operation order — and per-doc outputs match on the rounded columns
(kn_parity gate; the float expression is mirrored term by term)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..exchange import hash_reduce
from .quality import LM_VOCAB, _WORD_RE

KN_D = 0.75
BOS = "<s>"
UNK = "<unk>"

KN_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("n_tokens", pa.int64()),
        ("neg_logprob_per_token", pa.float64()),
        ("ppl", pa.float64()),
    ]
)


def _top_vocab(docs_ds, vocab_size: int, nparts: int):
    """Top-V corpus unigrams (count DESC, token ASC tie-break) — the
    unigram LM's pass 1: per-batch combiner partials, the
    hash(token) exchange, local top-V + total marker per partition,
    partition-bounded driver merge.  Returns the sorted vocab list."""
    import polars as pl

    def token_partials(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch.select(["text"])).with_columns(
            ws=pl.col("text").str.extract_all(_WORD_RE)
        )
        out = (
            df.select("ws")
            .explode("ws", empty_as_null=True)
            .drop_nulls("ws")
            .rename({"ws": "token"})
            .group_by("token")
            .agg(n=pl.len().cast(pl.Int64))
        )
        return out.to_arrow().cast(
            pa.schema([("token", pa.string()), ("n", pa.int64())])
        )

    def local_top(group: pa.Table) -> pa.Table:
        df = (
            pl.from_arrow(group.select(["token", "n"]))
            .group_by("token")
            .agg(c=pl.col("n").sum().cast(pl.Int64))
        )
        return (
            df.sort(["c", "token"], descending=[True, False])
            .head(vocab_size)
            .to_arrow()
        )

    rows = hash_reduce(
        docs_ds.map_batches(token_partials, batch_format="pyarrow"),
        ["token"], local_top, nparts,
    ).take_all()
    cand = [(r["token"], r["c"]) for r in rows]
    cand.sort(key=lambda x: (-x[1], x[0]))
    return [t for t, _c in cand[:vocab_size]]


def _doc_bigrams(batch: pa.Table, vocab: list[str]):
    """polars frame of (doc_id, prev, cur) with <unk> mapping and <s>
    padding — shared by the count and score passes."""
    import polars as pl

    df = pl.from_arrow(batch.select(["doc_id", "text"])).with_columns(
        ws=pl.col("text").str.extract_all(_WORD_RE)
    )
    tok = (
        df.select("doc_id", "ws")
        .explode("ws", empty_as_null=True)
        .drop_nulls("ws")
        .rename({"ws": "cur"})
        .with_columns(
            cur=pl.when(pl.col("cur").is_in(vocab))
            .then(pl.col("cur"))
            .otherwise(pl.lit(UNK))
        )
        .with_columns(
            prev=pl.col("cur").shift(1).over("doc_id").fill_null(BOS)
        )
    )
    return tok.select(["doc_id", "prev", "cur"])


def kn_bigram_scores(
    docs_ds, vocab_size: int = LM_VOCAB, num_partitions: int | None = None
):
    """Per-document Kneser-Ney bigram perplexity Dataset (KN_SCHEMA)."""
    import polars as pl
    import ray

    from ..context import shuffle_partitions as _sp

    nparts = num_partitions or _sp()
    vocab = _top_vocab(docs_ds, vocab_size, nparts)
    v_eff = len(vocab)
    vocab_ref = ray.put(vocab)

    def bigram_partials(batch: pa.Table) -> pa.Table:
        vset = ray.get(vocab_ref)
        out = (
            _doc_bigrams(batch, vset)
            .group_by(["prev", "cur"])
            .agg(n=pl.len().cast(pl.Int64))
        )
        return out.to_arrow().cast(
            pa.schema(
                [
                    ("prev", pa.large_string()),
                    ("cur", pa.large_string()),
                    ("n", pa.int64()),
                ]
            )
        )

    def sum_part(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t)
            .group_by(["prev", "cur"])
            .agg(c=pl.col("n").sum().cast(pl.Int64))
            .select(["prev", "cur", "c"])
            .to_arrow()
            .cast(
                pa.schema(
                    [
                        ("prev", pa.large_string()),
                        ("cur", pa.large_string()),
                        ("c", pa.int64()),
                    ]
                )
            )
        )

    bc = hash_reduce(
        docs_ds.map_batches(bigram_partials, batch_format="pyarrow"),
        ["prev", "cur"], sum_part, nparts,
    ).materialize()

    # context / continuation stats: per-partition partials over the
    # (already globally unique) bigram rows; driver merges are
    # vocab-bounded by construction
    def ctx_partials(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t)
            .group_by("prev")
            .agg(
                cv=pl.col("c").sum().cast(pl.Int64),
                n1p=pl.len().cast(pl.Int64),
            )
            .to_arrow()
            .cast(
                pa.schema(
                    [("prev", pa.large_string()), ("cv", pa.int64()), ("n1p", pa.int64())]
                )
            )
        )

    def cont_partials(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t)
            .group_by("cur")
            .agg(nw=pl.len().cast(pl.Int64))
            .to_arrow()
            .cast(pa.schema([("cur", pa.large_string()), ("nw", pa.int64())]))
        )

    ctx: dict[str, tuple[int, int]] = {}
    for r in bc.map_batches(ctx_partials, batch_format="pyarrow").take_all():
        cv, n1p = ctx.get(r["prev"], (0, 0))
        ctx[r["prev"]] = (cv + r["cv"], n1p + r["n1p"])
    cont: dict[str, int] = {}
    for r in bc.map_batches(cont_partials, batch_format="pyarrow").take_all():
        cont[r["cur"]] = cont.get(r["cur"], 0) + r["nw"]
    nb = sum(n for _cv, n in ctx.values())  # N1+(..) = distinct bigram types
    cont_denom = float(nb) + (v_eff + 2)

    model_ref = ray.put(
        (
            pa.concat_tables(
                [t for t in ray.get(bc.to_arrow_refs()) if t.num_rows]
            )
            if bc.count()
            else pa.schema(
                [
                    ("prev", pa.large_string()),
                    ("cur", pa.large_string()),
                    ("c", pa.int64()),
                ]
            ).empty_table(),
            ctx,
            cont,
            cont_denom,
        )
    )

    class _KnScorer:
        """Actor-pool UDF: materializes the broadcast model once per
        actor, scores batches via vectorized polars joins."""

        def __init__(self):
            bc_t, ctx_d, cont_d, denom = ray.get(model_ref)
            self.bc = pl.from_arrow(bc_t)
            self.ctx = pl.DataFrame(
                {
                    "prev": list(ctx_d.keys()),
                    "cv": [v[0] for v in ctx_d.values()],
                    "n1p": [v[1] for v in ctx_d.values()],
                }
            )
            self.cont = pl.DataFrame(
                {"cur": list(cont_d.keys()), "nw": list(cont_d.values())}
            )
            self.denom = denom
            self.vset = ray.get(vocab_ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            from ..functions.rounding import round_half_away

            big = _doc_bigrams(batch, self.vset)
            j = (
                big.join(self.bc, on=["prev", "cur"], how="left")
                .join(self.ctx, on="prev", how="left")
                .join(self.cont, on="cur", how="left")
            )
            c = j.get_column("c").fill_null(0).to_numpy().astype(np.float64)
            cv = j.get_column("cv").to_numpy().astype(np.float64)
            n1p = j.get_column("n1p").to_numpy().astype(np.float64)
            nw = j.get_column("nw").fill_null(0).to_numpy().astype(np.float64)
            # mirror the oracle's operation order term by term
            lp = np.log(
                np.maximum(c - KN_D, 0.0) / cv
                + KN_D * n1p / cv * ((nw + 1.0) / self.denom)
            )
            scored = (
                j.select("doc_id")
                .with_columns(lp=pl.Series(lp))
                .group_by("doc_id")
                .agg(
                    n_tokens=pl.len().cast(pl.Int64),
                    s=pl.col("lp").sum(),
                )
            )
            neg = -scored["s"].to_numpy() / scored["n_tokens"].to_numpy()
            return pa.Table.from_pydict(
                {
                    "doc_id": scored["doc_id"].to_arrow(),
                    "n_tokens": scored["n_tokens"].to_arrow(),
                    "neg_logprob_per_token": round_half_away(neg, 4),
                    "ppl": round_half_away(np.exp(neg), 2),
                },
                schema=KN_SCHEMA,
            )

    return docs_ds.map_batches(
        _KnScorer, batch_format="pyarrow", concurrency=(1, 8)
    )


def q_kn_perplexity(sf_dir: str):
    import ray.data as rd

    from ..context import input_bytes, shuffle_partitions as _sp

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return kn_bigram_scores(
        ds,
        num_partitions=_sp(
            estimated_bytes=input_bytes(f"{sf_dir}/documents.parquet") * 2
        ),
    ).sort("doc_id")


def kn_perplexity_oracle_sql(vocab_size: int = LM_VOCAB) -> str:
    """DuckDB recomputes the whole pipeline with the identical float
    expression: vocab top-V, <unk> mapping, <s> via LAG over
    zip-unnested (pos, token), the four count tables, interpolated KN."""
    return f"""
        WITH w AS (
          SELECT doc_id, regexp_extract_all(text, '{_WORD_RE}') AS ws
          FROM documents
        ),
        tok AS (
          SELECT doc_id,
                 unnest(generate_series(1, len(ws))) AS pos,
                 unnest(ws) AS token
          FROM w
        ),
        cnt AS (SELECT token, COUNT(*) AS c FROM tok GROUP BY token),
        top AS (
          SELECT token FROM cnt ORDER BY c DESC, token LIMIT {vocab_size}
        ),
        veff AS (SELECT COUNT(*) AS v FROM top),
        map AS (
          SELECT doc_id, pos,
                 CASE WHEN token IN (SELECT token FROM top)
                      THEN token ELSE '{UNK}' END AS cur
          FROM tok
        ),
        big AS (
          SELECT doc_id,
                 COALESCE(LAG(cur) OVER (PARTITION BY doc_id ORDER BY pos),
                          '{BOS}') AS prev,
                 cur
          FROM map
        ),
        bc AS (SELECT prev, cur, COUNT(*) AS c FROM big GROUP BY 1, 2),
        ctx AS (SELECT prev, SUM(c) AS cv, COUNT(*) AS n1p FROM bc GROUP BY 1),
        cont AS (SELECT cur, COUNT(*) AS nw FROM bc GROUP BY 1),
        totb AS (SELECT COUNT(*) AS nb FROM bc),
        scored AS (
          -- every float literal CAST to DOUBLE: DuckDB parses bare
          -- float literals as DECIMAL, whose fixed-scale arithmetic
          -- diverges from the engine's IEEE doubles
          SELECT b.doc_id,
                 ln(greatest(bc.c - CAST({KN_D} AS DOUBLE),
                             CAST(0 AS DOUBLE)) / ctx.cv
                    + CAST({KN_D} AS DOUBLE) * ctx.n1p / ctx.cv
                      * ((cont.nw + CAST(1 AS DOUBLE))
                         / (totb.nb + veff.v + CAST(2 AS DOUBLE)))) AS lp
          FROM big b
          JOIN bc ON bc.prev = b.prev AND bc.cur = b.cur
          JOIN ctx ON ctx.prev = b.prev
          JOIN cont ON cont.cur = b.cur
          CROSS JOIN totb CROSS JOIN veff
        )
        SELECT doc_id,
               CAST(COUNT(*) AS BIGINT) AS n_tokens,
               ROUND(-AVG(lp), 4) AS neg_logprob_per_token,
               ROUND(EXP(-AVG(lp)), 2) AS ppl
        FROM scored GROUP BY doc_id ORDER BY doc_id
    """
