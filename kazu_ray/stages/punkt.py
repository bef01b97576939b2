"""Unsupervised statistical sentence-boundary detection (Punkt).

From-scratch implementation of the published Punkt algorithm (Kiss &
Strunk 2006, "Unsupervised Multilingual Sentence Boundary Detection",
Computational Linguistics 32(4)) as a distributed Ray Data training
pass plus a per-document decision function.  This is the statistical
analogue of the reference's genia-Stanza sentence segmenter
(/root/reference/kazu/steps/other/stanza.py:14-117): where the
reference ships pretrained torch weights, this trainer LEARNS its
parameters — abbreviation types, collocations, frequent sentence
starters and orthographic contexts — unsupervised from the corpus it
is about to segment.

Scale story (two counting passes, both streaming):

1. TYPE COUNTS — per-batch ``(bare_type, dotted, n)`` partials
   (combiner inside the batch), coarse ``hash(bare_type)`` exchange so
   a dotted type and its bare twin co-locate, vectorized in-partition
   sums; each partition emits ONLY abbreviation candidates (types seen
   with a final period) capped at its local top ``max_candidates`` by
   dotted count, plus two marker rows (total tokens / total
   period-final tokens), so the driver merge is bounded by
   partitions x (cap + 2) rows BY CONSTRUCTION.  Every type lives in
   one partition, so the local tops hold the global top; the driver
   keeps that global top, and the result does not depend on the
   partition count.  Abbreviation classification is a tiny driver
   loop over that candidate table.
2. CONTEXT COUNTS — the abbreviation set is broadcast once via
   ``ray.put``; per-batch partials carry per-type orthographic-context
   flag ORs, total/after-break counts and candidate-adjacent pair
   counts, exchanged and capped the same way (``max_types`` per
   partition, then globally, for ortho/starter rows; pairs are bounded
   because only pairs whose FIRST token is period-final are counted,
   mirroring the paper's collocation restriction).

The decision phase is an embarrassingly parallel ``map_batches``
(``PunktSentencizer`` / ``add_sentence_spans_punkt``) with the learned
parameters broadcast read-only to every actor.

No code is taken from any existing implementation; the statistics are
the paper's published formulas (Dunning log-likelihood ratios with the
paper's length / internal-period scaling factors and thresholds).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import pyarrow as pa

from ..exchange import hash_reduce
from .sentences import SENT_STRUCT

# ---------------------------------------------------------------------------
# thresholds and scaling factors, as published (Kiss & Strunk 2006 §4-5)
ABBREV_THRESHOLD = 0.3
COLLOCATION_THRESHOLD = 7.88
SENT_STARTER_THRESHOLD = 30.0

# orthographic-context flags: position (beginning / internal / unknown
# after an abbreviation) x case of the first character
ORTHO_BEG_UC = 1 << 1
ORTHO_MID_UC = 1 << 2
ORTHO_UNK_UC = 1 << 3
ORTHO_BEG_LC = 1 << 4
ORTHO_MID_LC = 1 << 5
ORTHO_UNK_LC = 1 << 6
_ORTHO_UC = ORTHO_BEG_UC | ORTHO_MID_UC | ORTHO_UNK_UC
_ORTHO_LC = ORTHO_BEG_LC | ORTHO_MID_LC | ORTHO_UNK_LC

_NUMBER_RE = re.compile(r"^-?[\.,]?\d[\d,\.-]*\.?$")
_TOKEN_RE = re.compile(r"\S+")
# concatenated-abstract repair shared with the rule sentencizer: a
# period glued to Uppercase+lowercase inside one whitespace token
# ("analyses.Objectives:") is split into two tokens before Punkt sees
# it; decimals ("0.51") and identifiers ("CYP2C19") never match.
_GLUED_RE = re.compile(r"(?<=\.)(?=[A-Z][a-z])")
_INITIAL_RE = re.compile(r"^[A-Za-z]\.$")
_ALPHA_RE = re.compile(r"[A-Za-z]")


def _type_of(token: str) -> str:
    """Punkt type: lowercased, numbers collapsed to ``##number##``
    (final period, if any, retained on the type)."""
    if _NUMBER_RE.match(token):
        return "##number##" + ("." if token.endswith(".") else "")
    return token.lower()


@dataclass(frozen=True)
class _Tok:
    """One whitespace token with its char offsets and derived flags."""

    text: str
    start: int
    end: int
    type: str  # normalized, possibly period-final
    period_final: bool
    is_ellipsis: bool
    is_initial: bool
    is_number: bool

    @property
    def bare(self) -> str:
        return self.type[:-1] if self.type.endswith(".") else self.type

    @property
    def first_upper(self) -> bool:
        return bool(self.text) and self.text[0].isupper()

    @property
    def first_lower(self) -> bool:
        return bool(self.text) and self.text[0].islower()


def _tokenize(text: str) -> list[_Tok]:
    out: list[_Tok] = []
    for m in _TOKEN_RE.finditer(text):
        for piece in _split_glued(m.group(), m.start()):
            out.append(piece)
    return out


def _split_glued(tok: str, start: int):
    parts = _GLUED_RE.split(tok)
    pos = start
    for p in parts:
        if not p:
            continue
        yield _make_tok(p, pos)
        pos += len(p)


def _make_tok(tok: str, start: int) -> _Tok:
    core = tok.rstrip(")\"']}»’”")
    stripped = tok.lstrip("([{\"'«‘“")
    lead = len(tok) - len(stripped)
    core_of_stripped = stripped.rstrip(")\"']}»’”")
    period_final = core_of_stripped.endswith(".")
    typ = _type_of(core_of_stripped) if core_of_stripped else tok.lower()
    is_ellipsis = core.endswith("..") or core.endswith("…")
    return _Tok(
        text=stripped or tok,
        start=start + (lead if stripped else 0),
        end=start + len(tok),
        type=typ,
        period_final=period_final and not is_ellipsis,
        is_ellipsis=is_ellipsis,
        is_initial=bool(_INITIAL_RE.match(core_of_stripped)),
        is_number=typ.startswith("##number##"),
    )


# ---------------------------------------------------------------------------
# the paper's log-likelihood statistics


def _dunning_ll(count_a: int, count_b: int, count_ab: int, n: int) -> float:
    """Modified Dunning log-likelihood for abbreviation detection:
    H0: P(period | word) = P(period); H1: P(period | word) = 0.99."""
    p1 = max(min(count_b / n, 1 - 1e-12), 1e-12)
    p2 = 0.99
    null_h = count_ab * math.log(p1) + (count_a - count_ab) * math.log(1.0 - p1)
    alt_h = count_ab * math.log(p2) + (count_a - count_ab) * math.log(1.0 - p2)
    return -2.0 * (null_h - alt_h)


def _col_ll(count_a: int, count_b: int, count_ab: int, n: int) -> float:
    """Standard two-way Dunning log-likelihood ratio for the
    collocation of two events a,b with joint count ``count_ab``."""

    def _term(k: float, total: float, p: float) -> float:
        p = max(min(p, 1.0 - 1e-12), 1e-12)
        return k * math.log(p) + (total - k) * math.log(1.0 - p)

    p = count_b / n
    p1 = count_ab / count_a if count_a else 0.0
    p2 = (count_b - count_ab) / (n - count_a) if n > count_a else 0.0
    ll = (
        _term(count_ab, count_a, p)
        + _term(count_b - count_ab, n - count_a, p)
        - _term(count_ab, count_a, p1)
        - _term(count_b - count_ab, n - count_a, p2)
    )
    return -2.0 * ll


def _classify_abbrev(bare: str, n_with: int, n_without: int,
                     n_period_toks: int, n_tokens: int) -> bool:
    """Type-based abbreviation test (paper §4): Dunning LLR for the
    collocation of the type with the final period, scaled by the length
    factor exp(-len), the internal-period bonus and the
    occurrence-without-period penalty."""
    # candidate must contain a letter and only word chars / periods /
    # hyphens (the paper restricts candidates to orthographic words)
    if not bare or not _ALPHA_RE.search(bare):
        return False
    if not re.fullmatch(r"[\w.\-]+", bare):
        return False
    num_periods = bare.count(".") + 1
    num_nonperiods = len(bare) - bare.count(".") + 1
    ll = _dunning_ll(n_with + n_without, n_period_toks, n_with, n_tokens)
    f_length = math.exp(-num_nonperiods)
    f_penalty = num_nonperiods ** -n_without if n_without < 50 else 0.0
    score = ll * f_length * num_periods * f_penalty
    return score >= ABBREV_THRESHOLD


# ---------------------------------------------------------------------------
# learned parameters


@dataclass(frozen=True)
class PunktParameters:
    abbrev_types: frozenset[str] = frozenset()
    collocations: frozenset[tuple[str, str]] = frozenset()
    sent_starters: frozenset[str] = frozenset()
    ortho_context: dict[str, int] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# pass 1: distributed type counts -> abbreviation types


def _count_types_batch(batch: pa.Table, text_column: str) -> pa.Table:
    """Per-batch combiner: (bare, dotted, n) partials plus marker rows
    carrying this batch's total / period-final token counts.  The
    exchange keys on the BARE form so dotted and bare twins co-locate."""
    import polars as pl

    from_counts: dict[tuple[str, bool], int] = {}
    n_tok = 0
    n_period = 0
    for text in batch.column(text_column).to_pylist():
        if not text:
            continue
        for tok in _tokenize(text):
            n_tok += 1
            if tok.period_final:
                n_period += 1
            key = (tok.bare, tok.type.endswith("."))
            from_counts[key] = from_counts.get(key, 0) + 1
    bares = [k[0] for k in from_counts]
    dotted = [k[1] for k in from_counts]
    ns = list(from_counts.values())
    # marker rows: empty bare can never be produced by _tokenize
    bares += ["", ""]
    dotted += [False, True]
    ns += [n_tok, n_period]
    df = pl.DataFrame({"bare": bares, "dotted": dotted, "n": ns}).with_columns(
        n=pl.col("n").cast(pl.Int64),
    )
    return df.to_arrow().cast(
        pa.schema(
            [
                ("bare", pa.string()),
                ("dotted", pa.bool_()),
                ("n", pa.int64()),
            ]
        )
    )


def _candidates_in_part(group, max_candidates: int):
    """Per-partition: exact sums, then emit only abbreviation
    candidates (bare types with a dotted occurrence) as
    (bare, n_with, n_without), capped at the local top
    ``max_candidates`` by dotted count (pruning only: the driver cuts
    the global top); marker sums ride along."""
    import polars as pl

    df = (
        pl.from_arrow(group.select(["bare", "dotted", "n"]))
        .group_by(["bare", "dotted"])
        .agg(c=pl.col("n").sum().cast(pl.Int64))
    )
    wide = (
        df.with_columns(
            n_with=pl.when(pl.col("dotted")).then(pl.col("c")).otherwise(0),
            n_without=pl.when(~pl.col("dotted")).then(pl.col("c")).otherwise(0),
        )
        .group_by("bare")
        .agg(
            n_with=pl.col("n_with").sum().cast(pl.Int64),
            n_without=pl.col("n_without").sum().cast(pl.Int64),
        )
    )
    markers = wide.filter(pl.col("bare") == "")
    cands = (
        wide.filter((pl.col("bare") != "") & (pl.col("n_with") > 0))
        .sort(["n_with", "bare"], descending=[True, False])
        .head(max_candidates)
    )
    return pl.concat([cands, markers]).to_pandas()


def _global_top(rows: list[dict], count: str, name: str, k: int) -> list[dict]:
    """The first ``k`` rows by (count desc, name asc), the reducers' own
    order.  Each name occurs in one row: the exchange put all of its
    partials in one partition, whose reducer summed them."""
    return sorted(rows, key=lambda r: (-int(r[count]), r[name]))[:k]


def train_punkt(docs_ds, text_column: str = "text",
                max_candidates: int = 100_000,
                max_types: int = 500_000,
                num_partitions: int | None = None) -> PunktParameters:
    """Learn Punkt parameters from a Dataset of texts (two streaming
    counting passes; see module docstring for the scale story)."""
    import ray

    from ..context import shuffle_partitions as _sp

    nparts = num_partitions or _sp()

    counts = hash_reduce(
        docs_ds.map_batches(
            _count_types_batch,
            fn_kwargs={"text_column": text_column},
            batch_format="pyarrow",
        ),
        ["bare"],
        lambda g: _candidates_in_part(g, max_candidates),
        nparts,
    )
    # bounded driver merge: <= partitions x (cap + 2) rows by construction
    rows = counts.take_all()
    n_tokens = sum(int(r["n_without"]) for r in rows if r["bare"] == "")
    n_period_toks = sum(int(r["n_with"]) for r in rows if r["bare"] == "")
    cands = _global_top(
        [r for r in rows if r["bare"]], "n_with", "bare", max_candidates
    )
    abbrevs = {
        r["bare"]
        for r in cands
        if _classify_abbrev(
            r["bare"], int(r["n_with"]), int(r["n_without"]),
            n_period_toks, n_tokens,
        )
    }
    base = PunktParameters(abbrev_types=frozenset(abbrevs))

    # ---- pass 2: ortho context / sentence starters / collocations
    params_ref = ray.put(base)

    ctx = hash_reduce(
        docs_ds.map_batches(
            _context_batch,
            fn_kwargs={"params_ref": params_ref, "text_column": text_column},
            batch_format="pyarrow",
        ),
        ["a"],
        lambda g: _context_in_part(g, max_types),
        nparts,
    )
    crows = ctx.take_all()
    n_breaks = sum(int(r["n"]) for r in crows if r["kind"] == "marker")
    types = _global_top(
        [r for r in crows if r["kind"] == "type"], "n", "a", max_types
    )
    ortho = {r["a"]: int(r["flags"]) for r in types}
    totals = {r["a"]: int(r["n"]) for r in types}
    after_break = {r["a"]: int(r["n_break"]) for r in types}
    pair_counts = {
        (r["a"], r["b"]): int(r["n"]) for r in crows if r["kind"] == "pair"
    }

    starters = set()
    for t, cab in after_break.items():
        ca = totals.get(t, 0)
        if cab == 0 or ca == 0 or n_breaks == 0:
            continue
        ll = _col_ll(n_breaks, ca, cab, n_tokens)
        # occurs after breaks significantly more often than chance
        if ll >= SENT_STARTER_THRESHOLD and n_tokens / n_breaks > ca / cab:
            starters.add(t)

    collocations = set()
    for (a, b), cab in pair_counts.items():
        ca, cb = totals.get(a, 0), totals.get(b, 0)
        if not ca or not cb or cab == 0:
            continue
        ll = _col_ll(ca, cb, cab, n_tokens)
        if ll >= COLLOCATION_THRESHOLD and n_tokens * cab > ca * cb:
            collocations.add((a, b))

    return PunktParameters(
        abbrev_types=frozenset(abbrevs),
        collocations=frozenset(collocations),
        sent_starters=frozenset(starters),
        ortho_context=ortho,
    )


# first-pass annotation outcomes
_BREAK, _ABBR, _UNKNOWN, _NONE = 0, 1, 2, 3


def _first_pass(tok: _Tok, abbrevs: frozenset[str]) -> int:
    core = tok.text.rstrip(")\"']}»’”")
    if core.endswith("?") or core.endswith("!"):
        return _BREAK
    if tok.is_ellipsis:
        return _UNKNOWN
    if tok.period_final:
        if tok.bare in abbrevs or tok.is_initial or tok.is_number:
            return _ABBR
        return _BREAK
    return _NONE


def _context_batch(batch: pa.Table, params_ref, text_column: str) -> pa.Table:
    """Per-batch partials for pass 2: per-type ortho flags + total and
    after-break counts, candidate-adjacent pair counts, and a
    definite-break marker."""
    import polars as pl
    import ray

    params: PunktParameters = ray.get(params_ref)
    abbrevs = params.abbrev_types
    type_rows: dict[str, list[int]] = {}
    pair_rows: dict[tuple[str, str], int] = {}
    n_breaks = 0
    for text in batch.column(text_column).to_pylist():
        if not text:
            continue
        toks = _tokenize(text)
        prev = _BREAK  # document start behaves like a sentence break
        prev_tok: _Tok | None = None
        for tok in toks:
            entry = type_rows.setdefault(tok.bare, [0, 0, 0])
            entry[1] += 1
            if prev == _BREAK:
                entry[2] += 1
                pos_flags = (ORTHO_BEG_UC, ORTHO_BEG_LC)
            elif prev in (_ABBR, _UNKNOWN):
                pos_flags = (ORTHO_UNK_UC, ORTHO_UNK_LC)
            else:
                pos_flags = (ORTHO_MID_UC, ORTHO_MID_LC)
            if tok.first_upper:
                entry[0] |= pos_flags[0]
            elif tok.first_lower:
                entry[0] |= pos_flags[1]
            if prev_tok is not None and prev_tok.period_final:
                key = (prev_tok.bare, tok.bare)
                pair_rows[key] = pair_rows.get(key, 0) + 1
            ann = _first_pass(tok, abbrevs)
            if ann == _BREAK:
                n_breaks += 1
            prev = ann
            prev_tok = tok
    a, b, kind, flags, n, n_break = [], [], [], [], [], []
    for t, (fl, tot, brk) in type_rows.items():
        a.append(t)
        b.append("")
        kind.append("type")
        flags.append(fl)
        n.append(tot)
        n_break.append(brk)
    for (t1, t2), c in pair_rows.items():
        a.append(t1)
        b.append(t2)
        kind.append("pair")
        flags.append(0)
        n.append(c)
        n_break.append(0)
    a.append("")
    b.append("")
    kind.append("marker")
    flags.append(0)
    n.append(n_breaks)
    n_break.append(0)
    df = pl.DataFrame(
        {"a": a, "b": b, "kind": kind, "flags": flags, "n": n, "n_break": n_break}
    ).with_columns(
        flags=pl.col("flags").cast(pl.Int64),
        n=pl.col("n").cast(pl.Int64),
        n_break=pl.col("n_break").cast(pl.Int64),
    )
    return df.to_arrow().cast(
        pa.schema(
            [
                ("a", pa.string()),
                ("b", pa.string()),
                ("kind", pa.string()),
                ("flags", pa.int64()),
                ("n", pa.int64()),
                ("n_break", pa.int64()),
            ]
        )
    )


def _context_in_part(group, max_types: int):
    """Per-partition merge for pass 2, capped at the local top
    ``max_types`` type rows by total count (pruning only: the driver
    cuts the global top; pairs and markers always
    emitted — pairs are bounded by the candidate-adjacency restriction,
    markers are one row per upstream block)."""
    import polars as pl

    df = pl.from_arrow(group.select(["a", "b", "kind", "flags", "n", "n_break"]))
    types = (
        df.filter(pl.col("kind") == "type")
        .group_by("a")
        .agg(
            flags=pl.col("flags").bitwise_or().cast(pl.Int64),
            n=pl.col("n").sum().cast(pl.Int64),
            n_break=pl.col("n_break").sum().cast(pl.Int64),
        )
        .sort(["n", "a"], descending=[True, False])
        .head(max_types)
        .with_columns(b=pl.lit(""), kind=pl.lit("type"))
    )
    pairs = (
        df.filter(pl.col("kind") == "pair")
        .group_by(["a", "b"])
        .agg(n=pl.col("n").sum().cast(pl.Int64))
        .with_columns(kind=pl.lit("pair"), flags=pl.lit(0, dtype=pl.Int64),
                      n_break=pl.lit(0, dtype=pl.Int64))
    )
    markers = (
        df.filter(pl.col("kind") == "marker")
        .select(n=pl.col("n").sum().cast(pl.Int64))
        .with_columns(a=pl.lit(""), b=pl.lit(""), kind=pl.lit("marker"),
                      flags=pl.lit(0, dtype=pl.Int64),
                      n_break=pl.lit(0, dtype=pl.Int64))
    )
    cols = ["a", "b", "kind", "flags", "n", "n_break"]
    return pl.concat([types.select(cols), pairs.select(cols),
                      markers.select(cols)]).to_pandas()


# ---------------------------------------------------------------------------
# decision phase


def _ortho_heuristic(params: PunktParameters, tok: _Tok) -> bool | None:
    """Paper's orthographic heuristic: does ``tok`` start a sentence?
    Returns None when the evidence is inconclusive."""
    if tok.text and tok.text[0] in ";,:.!?":
        return False
    ctx = params.ortho_context.get(tok.bare, 0)
    if tok.first_upper and (ctx & _ORTHO_LC) and not (ctx & ORTHO_MID_UC):
        return True
    if tok.first_lower and ((ctx & _ORTHO_UC) or not (ctx & ORTHO_BEG_LC)):
        return False
    return None


def sentence_spans_punkt(text: str, params: PunktParameters) -> list[tuple[int, int]]:
    """Segment ``text`` with learned Punkt parameters; returns
    (start, end) spans with the same conventions as
    sentences.sentence_spans (terminal punctuation included, trailing
    whitespace excluded)."""
    toks = _tokenize(text)
    if not toks:
        return []
    breaks: list[int] = []  # indices of tokens ending a sentence
    for i, tok in enumerate(toks):
        ann = _first_pass(tok, params.abbrev_types)
        if ann == _BREAK:
            breaks.append(i)
            continue
        if ann not in (_ABBR, _UNKNOWN):
            continue
        nxt = toks[i + 1] if i + 1 < len(toks) else None
        if nxt is None:
            breaks.append(i)
            continue
        if (tok.bare, nxt.bare) in params.collocations:
            continue
        ortho = _ortho_heuristic(params, nxt)
        if ortho is True and not (tok.is_initial or tok.is_number):
            breaks.append(i)
            continue
        if ortho is False:
            continue
        if (
            not (tok.is_initial or tok.is_number)
            and nxt.bare in params.sent_starters
            and nxt.first_upper
        ):
            breaks.append(i)
    out: list[tuple[int, int]] = []
    start = 0
    for i in breaks:
        end = toks[i].end
        if end > start:
            out.append((start, end))
        start = toks[i + 1].start if i + 1 < len(toks) else len(text)
    if start < len(text):
        stripped = text[start:].rstrip()
        if stripped:
            out.append((start, start + len(stripped)))
    return out


class FlatPunktSegmenter:
    """Actor-pool stage over a flat (doc_id, text) table: one output
    row per sentence (doc_id, sent_idx, start, end); learned params
    broadcast once per actor."""

    def __init__(self, params_ref):
        import ray

        self.params = (
            ray.get(params_ref) if not isinstance(params_ref, PunktParameters)
            else params_ref
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, sidx, starts, ends = [], [], [], []
        for d, t in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            for j, (s, e) in enumerate(sentence_spans_punkt(t or "", self.params)):
                ids.append(d)
                sidx.append(j)
                starts.append(s)
                ends.append(e)
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "sent_idx": pa.array(sidx, type=pa.int32()),
                "start": pa.array(starts, type=pa.int32()),
                "end": pa.array(ends, type=pa.int32()),
            }
        )


def q_punkt_sentences(sf_dir: str):
    """Data surface: train the unsupervised segmenter on the
    deterministic prose corpus, then segment it distributed (the gate
    row ``punkt_boundary_f1`` in approx_metrics scores this exact
    configuration against the generator's true spans)."""
    import ray
    import ray.data as rd

    from ..sources.prose import prose_table

    docs_tab = prose_table(300)
    params_ref = ray.put(train_punkt(rd.from_arrow(docs_tab)))
    return rd.from_arrow(docs_tab).map_batches(
        FlatPunktSegmenter,
        fn_constructor_args=(params_ref,),
        batch_format="pyarrow",
        concurrency=(1, 4),
    )


class PunktSentencizer:
    """Actor-pool stage: adds ``sent_spans`` using learned parameters
    (drop-in for sentences.add_sentence_spans; params broadcast via
    ``ray.put`` and resolved once per actor in ``__init__``)."""

    def __init__(self, params_ref):
        import ray

        self.params = (
            ray.get(params_ref) if not isinstance(params_ref, PunktParameters)
            else params_ref
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        col = []
        for spans in batch.column("spans").to_pylist():
            doc_sents = []
            for i, sp in enumerate(spans):
                if sp["text"]:
                    for s, e in sentence_spans_punkt(sp["text"], self.params):
                        doc_sents.append({"span_idx": i, "start": s, "end": e})
            col.append(doc_sents)
        if "sent_spans" in batch.schema.names:
            raise ValueError(
                "sent_spans already set (write-once, reference data.py:532-547)"
            )
        return batch.append_column(
            "sent_spans", pa.array(col, type=pa.list_(SENT_STRUCT))
        )
