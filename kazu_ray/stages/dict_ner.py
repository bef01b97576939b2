"""Dictionary NER + exact linking: the joint string-matching stage.

Re-realizes the reference's ahocorasick step
(/root/reference/kazu/steps/joint_ner_and_linking/
memory_efficient_string_matching.py:26-191) as a Ray Data actor-pool
``map_batches`` stage.  Matching is Aho-Corasick, exactly like the
reference — but run at native speed through polars'
``str.extract_many`` / ``str.find_many`` (aho-corasick crate) over a
whole batch of span texts in ONE call, instead of a char loop in
Python.  Word-boundary validity is checked per match with the O(1)
boundary predicates (functions/tokens.py, property-tested against the
tokenizer), mirroring the semantics the reference backfills via its
custom tokenizer (:97-100, 181-186); case-sensitivity and cross-parser
max-confidence resolution follow :102-106 and :152-175.

State (match table + synonym records) is built once per actor in
``__init__`` from the compiled parquet side tables.
"""

from __future__ import annotations

import pyarrow as pa

from ..constants import NS_DICT_NER
from ..functions.normalize import normalize
from ..functions.tokens import is_token_end, is_token_start
from ..schemas import ENTITIES_COLUMN
from ..state.side_tables import load_match_table, load_synonyms

# over-length doc guard, reference pipeline.py:138-155
MAX_DOC_CHARS = 200_000


class DictionaryNer:
    """Actor-pool UDF: adds an ``entities`` list<struct> column to doc rows.

    The ``spans`` column passes through untouched (per-row span-sequence
    invariant).
    """

    def __init__(self, curations_path: str, synonyms_path: str):
        self.table = load_match_table(curations_path)
        self.synonyms = load_synonyms(synonyms_path)
        # pattern list for the native automaton: the lowercase surface
        # keys; ascii_case_insensitive folds ASCII case in the text, and
        # non-ascii surfaces additionally contribute their original case
        patterns = set(self.table.by_surface.keys())
        for entries in self.table.by_surface.values():
            for e in entries:
                if not e.original_case.isascii():
                    patterns.add(e.original_case)
        self.patterns = sorted(patterns)
        # per-surface emission template cache: everything in an emitted
        # entity except (span_idx, start, end) is a pure function of the
        # exact matched surface string, and a corpus repeats a small set
        # of surfaces millions of times.  Candidate dicts are shared
        # between occurrences — downstream only reads or copies them
        # (cascade groups, merge_candidates dict()-copies).
        self._emit_cache: dict[str, list[tuple[str, str, int, list[dict]]]] = {}

    # ------------------------------------------------------------------
    # shared: matched surface occurrence -> entity rows
    # ------------------------------------------------------------------

    def _emit(self, text: str, span_idx: int, start: int, end: int,
              surface: str, out: list[dict]) -> None:
        tmpl = self._emit_cache.get(surface)
        if tmpl is None:
            tmpl = self._emit_cache[surface] = self._emit_template(surface)
        for entity_class, match_norm, confidence, candidates in tmpl:
            out.append(
                {
                    "span_idx": span_idx,
                    "start": start,
                    "end": end,
                    "match": surface,
                    "match_norm": match_norm,
                    "entity_class": entity_class,
                    "namespace": NS_DICT_NER,
                    "mention_confidence": confidence,
                    "candidates": candidates,
                    "mappings": [],
                }
            )

    def _emit_template(self, surface: str) -> list[tuple[str, str, int, list[dict]]]:
        entries = self.table.by_surface.get(surface.lower())
        if not entries:
            return []
        # group by entity class; resolve confidence as max across
        # parsers; drop case-sensitive entries on case mismatch
        by_class: dict[str, list] = {}
        for e in entries:
            if e.case_sensitive and surface != e.original_case:
                continue
            by_class.setdefault(e.entity_class, []).append(e)
        tmpl: list[tuple[str, str, int, list[dict]]] = []
        for entity_class, class_entries in by_class.items():
            candidates = []
            seen: set[tuple[str, str]] = set()
            for e in class_entries:
                key = (e.parser_name, e.term_norm)
                if key in seen or key not in self.synonyms:
                    continue
                seen.add(key)
                candidates.append(
                    {
                        "parser_name": e.parser_name,
                        "term_norm": e.term_norm,
                        "search_score": 100.0,
                        "exact_match": True,
                    }
                )
            if not candidates:
                continue
            tmpl.append(
                (
                    entity_class,
                    normalize(surface, entity_class),
                    max(e.mention_confidence for e in class_entries),
                    candidates,
                )
            )
        return tmpl

    # ------------------------------------------------------------------
    # native batch path (polars aho-corasick)
    # ------------------------------------------------------------------

    def match_texts(self, texts: list[str], span_idxs: list[int]) -> list[list[dict]]:
        """One automaton pass over many span texts; returns entity lists
        parallel to ``texts`` (span_idx taken from ``span_idxs``)."""
        if not self.patterns or not texts:
            return [[] for _ in texts]
        import polars as pl

        return self.match_series(pl.Series(texts, dtype=pl.String), span_idxs)

    def match_series(self, s, span_idxs) -> list[list[dict]]:
        """Automaton pass over a polars String Series (built zero-copy-ish
        from the Arrow text column — no Python ``str`` round trip).

        Python strings are materialized ONLY for spans with at least one
        raw automaton hit: the first pass (``find_many``) runs over the
        whole series natively, then ``extract_many`` + boundary checks run
        over the gathered hit rows alone.  On a corpus where most spans
        contain no dictionary surface this removes the dominant
        Arrow->Python string conversion from the hot phase.
        """
        n = len(s)
        if not self.patterns or n == 0:
            return [[] for _ in range(n)]
        starts_col = s.str.find_many(
            self.patterns, ascii_case_insensitive=True, overlapping=True
        ).to_list()
        out: list[list[dict]] = [[] for _ in range(n)]
        hit_rows = [i for i, starts in enumerate(starts_col) if starts]
        if not hit_rows:
            return out
        hit_s = s.gather(hit_rows)
        matches_col = hit_s.str.extract_many(
            self.patterns, ascii_case_insensitive=True, overlapping=True
        ).to_list()
        hit_texts = hit_s.to_list()
        for row, text, matches in zip(hit_rows, hit_texts, matches_col):
            ents: list[dict] = []
            seen_spans: set[tuple[int, int]] = set()
            span_idx = int(span_idxs[row])
            for start, matched in zip(starts_col[row], matches):
                end = start + len(matched)
                if (start, end) in seen_spans:
                    continue  # ascii + original-case patterns can overlap
                seen_spans.add((start, end))
                if is_token_start(text, start) and is_token_end(text, end):
                    self._emit(text, span_idx, start, end, matched, ents)
            out[row] = ents
        return out

    def match_span_text(self, text: str, span_idx: int) -> list[dict]:
        """Single-span convenience wrapper (same semantics as the batch
        path)."""
        return self.match_texts([text], [span_idx])[0]

    # ------------------------------------------------------------------
    # doc batches: one span flatten + over-length guard for every path
    # ------------------------------------------------------------------

    @staticmethod
    def flatten_spans(batch: pa.Table):
        """Flatten a doc batch's span texts and apply the over-length guard.

        Returns ``(flat_text, bounds, errors)``: doc ``r``'s span texts are
        ``flat_text[bounds[r]:bounds[r + 1]]`` and ``errors[r]`` is the
        doc's upstream ``error``, else the over-length reason (reference
        Pipeline.prefilter_docs:195-209), else None.
        """
        import numpy as np
        import pyarrow.compute as pc

        spans_col = batch.column("spans")
        lengths = pc.fill_null(pc.list_value_length(spans_col), 0)
        bounds = np.zeros(len(batch) + 1, dtype=np.int64)
        np.cumsum(lengths.to_numpy(zero_copy_only=False), out=bounds[1:])
        flat_text = pc.list_flatten(spans_col).combine_chunks().field("text")
        # vectorized per-doc char totals
        char_lens = pc.fill_null(pc.utf8_length(flat_text), 0)
        ccum = np.zeros(len(flat_text) + 1, dtype=np.int64)
        np.cumsum(char_lens.to_numpy(zero_copy_only=False), out=ccum[1:])
        totals = (ccum[bounds[1:]] - ccum[bounds[:-1]]).tolist()
        upstream = (
            batch.column("error").to_pylist()
            if "error" in batch.schema.names
            else [None] * len(batch)
        )
        errors = [
            err if err is not None
            else f"doc too long: {t} chars" if t > MAX_DOC_CHARS
            else None
            for err, t in zip(upstream, totals)
        ]
        return flat_text, bounds, errors

    def match_batch(self, batch: pa.Table):
        """``flatten_spans`` plus ONE automaton pass over every span of
        every doc in the batch; returns ``(flat_text, bounds, errors,
        per_span)``.  Skipped docs' spans are blanked first, so the
        automaton never sees them.  The text column goes Arrow -> polars
        natively (no Python strings except for spans that hit)."""
        import numpy as np
        import polars as pl

        flat_text, bounds, errors = self.flatten_spans(batch)
        s = pl.from_arrow(flat_text)
        skip_span_idx = [
            i
            for r, err in enumerate(errors)
            if err is not None
            for i in range(bounds[r], bounds[r + 1])
        ]
        if skip_span_idx:
            s = s.scatter(skip_span_idx, "")
        span_idxs = np.arange(bounds[-1], dtype=np.int64) - np.repeat(
            bounds[:-1], np.diff(bounds)
        )
        return flat_text, bounds, errors, self.match_series(s, span_idxs)

    def __call__(self, batch: pa.Table) -> pa.Table:
        _flat, bounds, errors, per_span = self.match_batch(batch)
        entities_per_doc: list[list[dict]] = []
        for r, err in enumerate(errors):
            ents: list[dict] = []
            if err is None:
                for span_ents in per_span[bounds[r] : bounds[r + 1]]:
                    ents.extend(span_ents)
            entities_per_doc.append(ents)
        ents_arr = pa.array(entities_per_doc, type=ENTITIES_COLUMN)
        if "entities" in batch.schema.names:
            batch = batch.drop_columns(["entities"])
        return batch.append_column("entities", ents_arr)
