"""SentencePiece-style unigram-LM tokenizer training (Kudo 2018).

The other half of the tokenizer world next to extras/bpe.py, and it
factors over the cluster the same way: unigram training never needs the
corpus, only the WORD-FREQUENCY table.

1. FIT (distributed, exact) — reuses ``extras.bpe.word_counts``: one
   tokenize pass of per-batch (word, n) combiner partials, the
   hash(word) exchange, and a hard ``top_v`` driver bound applied
   inside each hash partition (driver state bounded by construction).
2. SEED + EM (driver, bounded) — seed vocabulary from the most frequent
   substrings of the bounded word table, then Viterbi-EM: E-step
   re-segments every word with the current piece log-probs and accrues
   frequency-weighted hard counts, M-step renormalizes, prune to the
   vocab budget between rounds.  Every step is a pure DETERMINISTIC
   function of the word table (all ties break lexicographically), so
   the distributed fit and a single-process recount must produce the
   IDENTICAL vocabulary — the cross-engine equivalence gate.
3. APPLY (distributed) — final piece log-probs broadcast once via
   ``ray.put``; actors Viterbi-encode batches with a per-actor
   word->count memo (few distinct words per batch relative to tokens).

Documented simplifications vs Kudo 2018 (both keep the trainer a pure
function of the word table, which is what the gate pins):
- hard Viterbi-EM (counts from the single best segmentation) instead of
  lattice forward-backward expected counts;
- seed vocabulary by frequency-weighted substring counting instead of
  the enhanced-suffix-array heuristic, and pruning by piece probability
  instead of held-out likelihood loss.

Correctness gates (unigram_* rows of approx_metrics): the distributed
fit's (piece, logprob) table must EQUAL the single-process reference's,
and the distributed apply's per-doc token counts must equal the
reference encoder's on every document.

Reference seam: KAZU tokenizes with pretrained HuggingFace/spacy
tokenizers and never trains one (SURVEY §2l); this module is part of
the beyond-the-reference training-data surface.
"""

from __future__ import annotations

import math

import pyarrow as pa

MAX_PIECE_LEN = 6
SEED_SIZE = 2000
VOCAB_SIZE = 400
EM_ROUNDS = 4
UNK_LOGP = -20.0  # score for a character outside the vocabulary


def seed_vocab(word_counts_df, seed_size: int = SEED_SIZE,
               max_len: int = MAX_PIECE_LEN) -> dict[str, int]:
    """Frequency-weighted substring counts over the bounded word table:
    every substring of length <= max_len, counted once per occurrence
    position per word, weighted by word frequency.  Keeps ALL single
    characters (coverage) plus the seed_size most frequent multi-char
    pieces by (count desc, piece asc)."""
    counts: dict[str, int] = {}
    for word, n in zip(word_counts_df["word"], word_counts_df["n"]):
        n = int(n)
        L = len(word)
        for i in range(L):
            for j in range(i + 1, min(i + max_len, L) + 1):
                piece = word[i:j]
                counts[piece] = counts.get(piece, 0) + n
    chars = {p: c for p, c in counts.items() if len(p) == 1}
    multi = sorted(
        ((p, c) for p, c in counts.items() if len(p) > 1),
        key=lambda pc: (-pc[1], pc[0]),
    )[:seed_size]
    out = dict(chars)
    out.update(multi)
    return out


def viterbi(word: str, logp: dict[str, float],
            max_len: int = MAX_PIECE_LEN) -> list[str]:
    """Best segmentation of ``word`` under piece log-probs.  Ties break
    deterministically: higher score, then FEWER pieces, then the
    lexicographically smallest piece sequence.  A character absent from
    the vocabulary scores UNK_LOGP as its own piece (full coverage)."""
    L = len(word)
    # best[i] = (score, n_pieces, seg_tuple) for word[:i]
    best: list[tuple[float, int, tuple[str, ...]] | None] = [None] * (L + 1)
    best[0] = (0.0, 0, ())
    for i in range(L):
        b = best[i]
        if b is None:
            continue
        hi = min(i + max_len, L)
        for j in range(i + 1, hi + 1):
            piece = word[i:j]
            lp = logp.get(piece)
            if lp is None:
                if j - i > 1:
                    continue
                lp = UNK_LOGP
            cand = (b[0] + lp, b[1] + 1, b[2] + (piece,))
            cur = best[j]
            if (
                cur is None
                or cand[0] > cur[0]
                or (cand[0] == cur[0] and (cand[1], cand[2]) < (cur[1], cur[2]))
            ):
                best[j] = cand
    return list(best[L][2])


def _normalize(counts: dict[str, int]) -> dict[str, float]:
    total = sum(counts.values())
    return {p: math.log(c / total) for p, c in counts.items()}


def train_unigram(word_counts_df, vocab_size: int = VOCAB_SIZE,
                  seed_size: int = SEED_SIZE, max_len: int = MAX_PIECE_LEN,
                  em_rounds: int = EM_ROUNDS) -> dict[str, float]:
    """Viterbi-EM over the bounded word table -> {piece: logprob}.
    Pure deterministic function of the table (see module docstring)."""
    counts = seed_vocab(word_counts_df, seed_size, max_len)
    if not counts:
        return {}
    logp = _normalize(counts)
    words = list(zip(word_counts_df["word"], (int(n) for n in word_counts_df["n"])))
    for r in range(em_rounds):
        new: dict[str, int] = {}
        for word, n in words:
            for piece in viterbi(word, logp, max_len):
                new[piece] = new.get(piece, 0) + n
        # single characters survive with a floor count (coverage); a
        # multi-char piece the E-step never used is dropped
        for p in logp:
            if len(p) == 1:
                new[p] = max(new.get(p, 0), 1)
        # prune to the vocab budget: all single chars + the best multi
        # pieces by (count desc, piece asc)
        chars = {p: c for p, c in new.items() if len(p) == 1}
        budget = max(vocab_size - len(chars), 0)
        multi = sorted(
            ((p, c) for p, c in new.items() if len(p) > 1),
            key=lambda pc: (-pc[1], pc[0]),
        )[:budget]
        counts = dict(chars)
        counts.update(multi)
        logp = _normalize(counts)
    return logp


def fit_unigram(ds, text: str = "text", **kw) -> dict[str, float]:
    """Distributed fit: bounded word-count exchange (extras.bpe) + the
    pure driver-side trainer."""
    from .bpe import word_counts

    return train_unigram(word_counts(ds, text=text), **kw)


class _UnigramEncoder:
    """Actor: per-doc unigram token counts with a per-actor word memo."""

    def __init__(self, logp_ref):
        import ray

        self.logp = (
            ray.get(logp_ref) if not isinstance(logp_ref, dict) else logp_ref
        )
        self._memo: dict[str, int] = {}

    def __call__(self, t: pa.Table) -> pa.Table:
        import polars as pl

        df = pl.from_arrow(t.select(["doc_id", "text"])).with_columns(
            ws=pl.col("text").str.to_lowercase().str.extract_all(r"[a-z0-9]+")
        )
        counts = []
        for ws in df["ws"]:
            total = 0
            for w in ws if ws is not None else []:
                c = self._memo.get(w)
                if c is None:
                    c = self._memo[w] = len(viterbi(w, self.logp))
                total += c
            counts.append(total)
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "n_unigram_tokens": pa.array(counts, pa.int64()),
            }
        )


def unigram_token_counts(ds, logp: dict[str, float]):
    import ray

    ref = ray.put(logp)
    return ds.map_batches(
        _UnigramEncoder,
        fn_constructor_args=(ref,),
        batch_format="pyarrow",
        concurrency=(1, 8),
    )


def q_unigram_token_count(sf_dir: str):
    """Bench surface for the distributed Viterbi APPLY: fit on a
    hard-bounded word table (top_v=2^14 — the driver EM is O(table),
    not O(corpus), so the bound also caps fit latency at bench scale),
    broadcast the piece log-probs once, stream per-doc token counts.
    Correctness of both fit and apply is pinned by the unigram_* gates
    at the default bounds; this entry exists to measure the apply
    path's throughput over the full corpus."""
    import ray.data as rd

    from .bpe import word_counts

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    logp = train_unigram(word_counts(ds, top_v=2**14))
    return unigram_token_counts(ds, logp)


def q_unigram_train(sf_dir: str):
    """Query surface: the learned (rank, piece, logprob) vocabulary over
    documents; fit+apply equivalence vs the single-process reference is
    the unigram_* rows of approx_metrics."""
    import pandas as pd
    import ray.data as rd

    from ..functions.rounding import round_half_away

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    logp = fit_unigram(ds)
    items = sorted(logp.items(), key=lambda pl_: (-pl_[1], pl_[0]))
    return pd.DataFrame(
        {
            "rank": range(len(items)),
            "piece": [p for p, _ in items],
            "logprob": [round_half_away(lp, 9) for _, lp in items],
        }
    )
