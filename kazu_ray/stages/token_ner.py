"""Token-level phrase-matching NER — the ExplosionStringMatchingStep
analogue (reference kazu/ontology_matching/ontology_matcher.py:72-260 +
steps/ner/... spaCy PhraseMatcher pair).

The reference offers two interchangeable dictionary matchers: the
memory-efficient Aho-Corasick char matcher (our
:class:`~kazu_ray.stages.dict_ner.DictionaryNer`, the default) and a
spaCy-based token matcher with a strict (ORTH) and a lowercase (NORM)
PhraseMatcher.  This class is the token-level variant: a curated
surface only matches on whole-token windows (no mid-token hits by
construction, so the char matcher's boundary predicates are
unnecessary), with case-sensitive entries checked against the original
surface exactly as the strict matcher would.

Candidate emission, curation semantics and output schema are shared
with DictionaryNer (same `_emit`), so the two are drop-in swappable in
the pipeline config.
"""

from __future__ import annotations

from ..functions.tokens import tokenize
from .dict_ner import DictionaryNer


class TokenPhraseNer(DictionaryNer):
    """Actor-pool UDF: token-window phrase matching over doc rows."""

    def __init__(self, curations_path: str, synonyms_path: str):
        super().__init__(curations_path, synonyms_path)
        # lowercase token-tuple index over every curated surface
        # (PhraseMatcher attr="NORM"; strict/ORTH case check happens in
        # _emit via MatchEntry.case_sensitive)
        self._phrases: set[tuple[str, ...]] = set()
        self._max_len = 1
        for surface in self.patterns:
            toks = tuple(t.text.lower() for t in tokenize(surface))
            if toks:
                self._phrases.add(toks)
                self._max_len = max(self._max_len, len(toks))

    def match_series(self, s, span_idxs) -> list[list[dict]]:
        """Token-window matching over a polars String Series; same
        contract as :meth:`DictionaryNer.match_series`, so the inherited
        ``__call__`` / ``match_span_text`` run this matcher."""
        out: list[list[dict]] = []
        for text, span_idx in zip(s.to_list(), span_idxs):
            ents: list[dict] = []
            toks = tokenize(text)
            n = len(toks)
            for i in range(n):
                upper = min(self._max_len, n - i)
                for length in range(1, upper + 1):
                    key = tuple(toks[j].text.lower() for j in range(i, i + length))
                    if key in self._phrases:
                        start = toks[i].start
                        end = toks[i + length - 1].end
                        self._emit(text, int(span_idx), start, end, text[start:end], ents)
            out.append(ents)
        return out
