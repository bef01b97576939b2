"""Distributed BPE tokenizer training (Sennrich et al. 2016).

Learning a byte-pair-encoding vocabulary from the corpus a model will
train on is a core training-data-pipeline job.  The published algorithm
factors exactly into the shape this repo is built on:

1. FIT (distributed, exact) — BPE training never needs the corpus, only
   the WORD-FREQUENCY table (Sennrich et al. 2016 §3.2 operate on a
   dictionary of words with counts).  One tokenize pass emits per-batch
   (word, n) combiner partials; the ``hash(word)`` exchange
   (``exchange.hash_reduce``) merges them exactly (the same two-step
   count as extras/collocations.py).  The result is vocab-sized — 1e6-ish rows at
   web scale, not corpus-sized — and optionally capped to the top-V
   words by (count desc, word asc) for a hard driver bound.
2. MERGE LEARNING (driver, bounded) — the classic greedy loop over the
   bounded word-count table: count adjacent symbol pairs weighted by
   word frequency, merge the most frequent pair (ties broken by the
   lexicographically smallest pair, so the result is deterministic and
   engine-independent), repeat ``n_merges`` times.  Words end with an
   explicit ``</w>`` marker so merges cannot cross word boundaries.
3. APPLY (distributed) — the learned merge ranks are broadcast once via
   ``ray.put``; each actor tokenizes batches through the merge ladder
   with a per-actor word->segmentation memo (a corpus batch has few
   distinct words relative to tokens, the same memoization win as the
   NER surface caches).

Correctness gates (bpe_* rows of approx_metrics): the distributed fit's
merge list must EQUAL the merge list learned by an independent
single-process reference (plain-python recount over the same parquet —
the kmeans/SemDeDup equivalence-gate pattern), and the distributed
apply's per-doc token counts must equal the reference encoder's counts
on every document.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..exchange import hash_reduce

_WORD_RE = r"[a-z0-9]+"
END = "</w>"
N_MERGES = 120


# ---------------------------------------------------------------------------
# distributed word-frequency fit


def _word_partials(t: pa.Table, text: str) -> pa.Table:
    import polars as pl

    cnt = (
        pl.from_arrow(t.select([text]))
        .select(w=pl.col(text).str.to_lowercase().str.extract_all(_WORD_RE))
        .explode("w", empty_as_null=True)
        .drop_nulls("w")
        .group_by("w")
        .len()
    )
    return pa.table(
        {
            "word": pa.array(cnt["w"].to_list(), pa.string()),
            "n": pa.array(cnt["len"].to_numpy().astype(np.int64)),
        }
    )


DEFAULT_TOP_V = 1 << 17  # 131,072 distinct words — plenty for any
# realistic merge budget (BPE merge quality is insensitive to the tail
# of singleton words); the DEFAULT hard bound on driver-side state.


def _merge_words(t: pa.Table, top_v=None):
    import pandas as pd

    out = pd.DataFrame(
        t.to_pandas().groupby("word", sort=False, as_index=False)["n"].sum()
    )
    if top_v:
        # per-partition truncation: the GLOBAL top_v by (n desc, word
        # asc) is always a subset of the union of per-partition top_v
        # (each partition holds every occurrence of its words), so
        # truncating here is lossless for the final head(top_v)
        out = out.sort_values(["n", "word"], ascending=[False, True]).head(top_v)
    return out


def word_counts(ds, text: str = "text", nparts: int | None = None,
                top_v: int | None = DEFAULT_TOP_V):
    """Corpus -> exact (word, n) pandas table, capped to the top_v
    words by (n desc, word asc).  The cap is applied INSIDE each hash
    partition before anything returns to the driver, so driver state
    is hard-bounded at nparts x top_v rows by construction (and the
    returned table at top_v).  top_v defaults to DEFAULT_TOP_V (2^17);
    pass top_v=None to opt OUT explicitly (vocab-sized driver table —
    only sane for bounded inputs like a test fixture)."""
    import logging

    from ..context import shuffle_partitions as _sp

    nparts = nparts or _sp()
    import pandas as pd

    if top_v:
        logging.getLogger(__name__).info(
            "bpe.word_counts: capping word table to top_v=%d "
            "(per-partition truncation; driver sees <= %d rows)",
            top_v, nparts * top_v,
        )
    out = hash_reduce(
        ds.map_batches(_word_partials, fn_kwargs={"text": text}, batch_format="pyarrow"),
        ["word"], lambda g: _merge_words(g, top_v), nparts,
    ).to_pandas()
    if out.empty:  # token-less corpus: keep the schema stable
        out = pd.DataFrame({"word": pd.Series([], dtype=str),
                            "n": pd.Series([], dtype="int64")})
    out = out.sort_values(["n", "word"], ascending=[False, True]).reset_index(
        drop=True
    )
    return out.head(top_v) if top_v else out


# ---------------------------------------------------------------------------
# driver merge learning (pure function of the bounded word-count table)


def learn_merges(word_counts_df, n_merges: int = N_MERGES) -> list[tuple[str, str]]:
    """Greedy BPE over a (word, n) table; deterministic tie-break by
    lexicographically smallest pair."""
    seqs: list[list[str]] = [list(w) + [END] for w in word_counts_df["word"]]
    ns = word_counts_df["n"].to_list()
    merges: list[tuple[str, str]] = []
    for _ in range(n_merges):
        pairs: dict[tuple[str, str], int] = {}
        for seq, n in zip(seqs, ns):
            for a, b in zip(seq, seq[1:]):
                pairs[(a, b)] = pairs.get((a, b), 0) + n
        if not pairs:
            break
        # max count; ties -> lexicographically SMALLEST pair (so the
        # learned vocabulary is a pure function of the count table,
        # independent of dict iteration order or engine)
        top = max(pairs.values())
        pair = min(p for p, c in pairs.items() if c == top)
        if pairs[pair] < 2:
            break  # no productive merges left
        merges.append(pair)
        merged = pair[0] + pair[1]
        new_seqs = []
        for seq in seqs:
            i, out = 0, []
            while i < len(seq):
                if i + 1 < len(seq) and seq[i] == pair[0] and seq[i + 1] == pair[1]:
                    out.append(merged)
                    i += 2
                else:
                    out.append(seq[i])
                    i += 1
            new_seqs.append(out)
        seqs = new_seqs
    return merges


def encode_word(word: str, ranks: dict[tuple[str, str], int]) -> list[str]:
    """Apply learned merges to one word (lowest-rank pair first — the
    standard BPE encoder; identical results to replaying training)."""
    seq = list(word) + [END]
    while len(seq) > 1:
        best_rank, best_i = None, -1
        for i in range(len(seq) - 1):
            r = ranks.get((seq[i], seq[i + 1]))
            if r is not None and (best_rank is None or r < best_rank):
                best_rank, best_i = r, i
        if best_rank is None:
            break
        seq[best_i : best_i + 2] = [seq[best_i] + seq[best_i + 1]]
    return seq


def fit_bpe(ds, text: str = "text", n_merges: int = N_MERGES,
            top_v: int | None = DEFAULT_TOP_V) -> list[tuple[str, str]]:
    """Fit BPE merges over the corpus.  top_v (default DEFAULT_TOP_V)
    hard-bounds the driver-side word table; the fit-equivalence gate
    (bpe_fit_equal) passes because the fixture vocab << 2^17 and, at
    scale, because merges learned from the top-2^17 words are identical
    to full-vocab merges for any n_merges whose pair counts clear the
    singleton tail."""
    return learn_merges(word_counts(ds, text=text, top_v=top_v), n_merges)


class _BpeEncoder:
    """Actor: per-doc BPE token counts with a per-actor word memo."""

    def __init__(self, ranks_ref):
        import ray

        self.ranks = (
            ray.get(ranks_ref) if not isinstance(ranks_ref, dict) else ranks_ref
        )
        self._memo: dict[str, int] = {}

    def __call__(self, t: pa.Table) -> pa.Table:
        import polars as pl

        df = pl.from_arrow(t.select(["doc_id", "text"])).with_columns(
            ws=pl.col("text").str.to_lowercase().str.extract_all(_WORD_RE)
        )
        counts = []
        for ws in df["ws"]:
            total = 0
            for w in ws if ws is not None else []:
                c = self._memo.get(w)
                if c is None:
                    c = self._memo[w] = len(encode_word(w, self.ranks))
                total += c
            counts.append(total)
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "n_bpe_tokens": pa.array(counts, pa.int64()),
            }
        )


def bpe_token_counts(ds, merges: list[tuple[str, str]]):
    import ray

    ranks_ref = ray.put({p: i for i, p in enumerate(merges)})
    return ds.map_batches(
        _BpeEncoder,
        fn_constructor_args=(ranks_ref,),
        batch_format="pyarrow",
        concurrency=(1, 8),
    )


# ---------------------------------------------------------------------------
# single-process reference (the equivalence-gate oracle; shares NO code
# with the distributed fit path beyond learn_merges/encode_word, which
# are pure functions of the bounded table)


def reference_word_counts(parquet_path: str):
    import re

    import pandas as pd
    import pyarrow.parquet as pq

    counts: dict[str, int] = {}
    for txt in pq.read_table(parquet_path, columns=["text"]).column("text"):
        s = txt.as_py()
        if s is None:
            continue
        for w in re.findall(_WORD_RE, s.lower()):
            counts[w] = counts.get(w, 0) + 1
    df = pd.DataFrame({"word": list(counts), "n": list(counts.values())})
    return df.sort_values(["n", "word"], ascending=[False, True]).reset_index(
        drop=True
    )


def q_bpe_train(sf_dir: str):
    """Query surface: the learned merge table (rank, left, right) over
    documents; fit+apply equivalence vs the single-process reference is
    the bpe_* rows of approx_metrics."""
    import pandas as pd
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    merges = fit_bpe(ds)
    return pd.DataFrame(
        {
            "rank": range(len(merges)),
            "left": [a for a, _ in merges],
            "right": [b for _, b in merges],
        }
    )
