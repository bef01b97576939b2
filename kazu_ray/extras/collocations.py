"""PMI collocation mining (pointwise mutual information over bigrams).

A standard corpus-analysis primitive for training-data pipelines
(Church & Hanks 1990): surface the word pairs that co-occur far more
often than chance — boilerplate markers, templated spans, multi-word
entities.  PMI(w1, w2) = ln( (n12 / N12) / ((n1 / N1) * (n2 / N1)) )
where n12 is the bigram count, N12 the total bigram count, n_i the
unigram counts and N1 the total token count; only bigrams with
n12 >= min_count are scored (the classic noise floor — PMI of
singletons is meaningless).

Scale shape (the combiner-before-shuffle discipline):

1. ONE tokenize pass emits per-batch (gram, n) PARTIALS for unigrams
   and bigrams together — the per-batch polars group_by caps each
   batch's contribution at its distinct-gram count, and the totals
   (N1, N12) ride along as two scalar rows per batch.
2. The ``hash(gram)`` exchange (``exchange.hash_reduce``) merges
   partials exactly per partition;
   bigrams below min_count are dropped INSIDE the partition, so the
   surviving bigram side is bounded by the noise floor.
3. Only the bounded frequent-bigram table is collected; unigram counts
   stay IN THE DATASET (vocab-sized, same scale class as token_topk's
   exchange) and are reduced to the frequent-bigram word set by a
   broadcast-set semi-join before the driver ever sees a unigram row —
   driver memory is bounded by the frequent set, not the vocabulary.

Every arithmetic step is mirrored exactly by ``pmi_oracle_sql`` (same
tokenizer regex, same counts, same ln ratio, round(6)); the
``pmi_parity`` row of approx_metrics compares the FULL thresholded set,
not a top-k whose cutoff could flip on float ulps.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..exchange import hash_reduce

_WORD_RE = r"[a-z0-9]+"
MIN_COUNT = 5
_KIND_UNI, _KIND_BIG, _KIND_N1, _KIND_N12 = 0, 1, 2, 3


def _gram_partials(t: pa.Table, text: str) -> pa.Table:
    """One batch -> (gram, n, kind) partial counts; kind 2/3 rows (one
    each per batch, gram "" so they share a partition) carry the batch's
    token and bigram totals."""
    import polars as pl

    df = (
        pl.from_arrow(t.select([text]))
        .select(ws=pl.col(text).str.to_lowercase().str.extract_all(_WORD_RE))
        .with_row_index("rid")
        .explode("ws", empty_as_null=True)
        .drop_nulls("ws")
    )
    uni = df.group_by("ws").len().rename({"ws": "gram", "len": "n"})
    big = (
        df.with_columns(nxt=pl.col("ws").shift(-1).over("rid"))
        .drop_nulls("nxt")
        .select(gram=pl.concat_str([pl.col("ws"), pl.col("nxt")], separator=" "))
        .group_by("gram")
        .len()
        .rename({"len": "n"})
    )
    grams, ns, kinds = [], [], []
    for frame, kind in ((uni, _KIND_UNI), (big, _KIND_BIG)):
        gs = frame["gram"].to_list()
        grams += gs
        ns += frame["n"].to_list()
        kinds += [kind] * len(gs)
    # batch totals, one row each, merged exactly in one partition
    grams += ["", ""]
    ns += [int(uni["n"].sum() or 0), int(big["n"].sum() or 0)]
    kinds += [_KIND_N1, _KIND_N12]
    return pa.table(
        {
            "gram": pa.array(grams, pa.string()),
            "n": pa.array(np.asarray(ns, dtype=np.int64)),
            "kind": pa.array(np.asarray(kinds, dtype=np.int64)),
        }
    )


def _merge_counts(t: pa.Table, min_count: int):
    """Exact per-partition merge; bigrams filtered to >= min_count."""
    import pandas as pd

    g = t.to_pandas()
    merged = g.groupby(["kind", "gram"], sort=False, as_index=False)["n"].sum()
    keep = merged[(merged["kind"] != _KIND_BIG) | (merged["n"] >= min_count)]
    return pd.DataFrame(keep)


def pmi_bigrams(ds, text: str = "text", min_count: int = MIN_COUNT,
                nparts: int | None = None):
    """Corpus -> pandas (w1, w2, n12, n1, n2, pmi) for every bigram with
    n12 >= min_count, PMI rounded to 6 decimals, sorted by (w1, w2)."""
    import math

    import pandas as pd
    import ray

    from ..context import shuffle_partitions as _sp

    nparts = nparts or _sp()
    merged = hash_reduce(
        ds.map_batches(_gram_partials, fn_kwargs={"text": text}, batch_format="pyarrow"),
        ["gram"], lambda g: _merge_counts(g, min_count), nparts,
    ).materialize()
    # bounded: frequent bigrams + 2 totals rows
    bigs = [
        (r["gram"], int(r["n"]))
        for r in merged.filter(expr=f"kind == {_KIND_BIG}").take_all()
    ]
    totals = {
        int(r["kind"]): int(r["n"])
        for r in merged.filter(expr=f"kind >= {_KIND_N1}").take_all()
    }
    n1, n12 = totals.get(_KIND_N1, 0), totals.get(_KIND_N12, 0)
    need: set[str] = set()
    for g, _ in bigs:
        a, b = g.split(" ", 1)
        need.update((a, b))
    need_ref = ray.put(need)

    def keep_needed(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        wanted = ray.get(need_ref)
        mask = pc.is_in(
            t.column("gram"), value_set=pa.array(sorted(wanted), pa.string())
        )
        return t.filter(mask)

    uni_rows = (
        merged.filter(expr=f"kind == {_KIND_UNI}")
        .map_batches(keep_needed, batch_format="pyarrow")
        .take_all()
    )  # bounded: <= 2 x |frequent bigrams| rows
    uni = {r["gram"]: int(r["n"]) for r in uni_rows}
    out = []
    for g, c in bigs:
        a, b = g.split(" ", 1)
        pmi = math.log((c / n12) / ((uni[a] / n1) * (uni[b] / n1)))
        out.append((a, b, c, uni[a], uni[b], round(pmi, 6)))
    df = pd.DataFrame(out, columns=["w1", "w2", "n12", "n1", "n2", "pmi"])
    return df.sort_values(["w1", "w2"]).reset_index(drop=True)


def pmi_oracle_sql(min_count: int = MIN_COUNT) -> str:
    """The identical computation as one DuckDB query."""
    return f"""
WITH toks AS (
  SELECT regexp_extract_all(lower(text), '{_WORD_RE}') AS ws
  FROM documents
),
ucnt AS (
  SELECT w, count(*) AS n FROM (SELECT unnest(ws) AS w FROM toks) GROUP BY w
),
n1 AS (SELECT sum(n) AS t FROM ucnt),
bcnt AS (
  SELECT w1, w2, count(*) AS n12 FROM (
    SELECT ws[i] AS w1, ws[i + 1] AS w2
    FROM toks, UNNEST(range(1, len(ws))) AS t(i)
  ) GROUP BY w1, w2
),
n12t AS (SELECT sum(n12) AS t FROM bcnt)
SELECT b.w1, b.w2, b.n12, u1.n AS n1, u2.n AS n2,
       round(ln((b.n12 / n12t.t) / ((u1.n / n1.t) * (u2.n / n1.t))), 6) AS pmi
FROM bcnt b
JOIN ucnt u1 ON b.w1 = u1.w
JOIN ucnt u2 ON b.w2 = u2.w, n1, n12t
WHERE b.n12 >= {min_count}
ORDER BY b.w1, b.w2
"""


def q_pmi_collocations(sf_dir: str):
    """Query surface: frequent-bigram PMI table over documents (full-set
    exact SQL parity is the pmi_parity row of approx_metrics)."""
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    return pmi_bigrams(ds)
