"""Runtime loaders for the compiled dictionary side tables.

These replace the reference's process-singleton SynonymDatabase /
MetadataDatabase (/root/reference/kazu/database/in_memory_db.py:23-147)
with plain dicts loaded once per *actor* from the compiled parquet
(shared storage on a real cluster; each map_batches actor builds its own
copy in ``__init__`` — the Ray-idiomatic broadcast for sub-GB side
state).
"""

from __future__ import annotations

from dataclasses import dataclass

import pyarrow.parquet as pq


@dataclass(frozen=True)
class SynRecord:
    parser_name: str
    entity_class: str
    term_norm: str
    terms: tuple[str, ...]
    is_symbolic: bool
    assoc_sets: tuple[frozenset[tuple[str, str]], ...]
    agg_strategy: str

    @property
    def is_ambiguous(self) -> bool:
        return len(self.assoc_sets) > 1

    def all_ids(self) -> set[tuple[str, str]]:
        return {pair for id_set in self.assoc_sets for pair in id_set}


@dataclass(frozen=True)
class MatchEntry:
    """One dictionary surface form, the automaton payload equivalent
    (reference memory_efficient_string_matching.py:44-95)."""

    parser_name: str
    entity_class: str
    term_norm: str
    original_case: str
    case_sensitive: bool
    mention_confidence: int


def load_synonyms(path: str) -> dict[tuple[str, str], SynRecord]:
    """(parser_name, term_norm) -> SynRecord."""
    table = pq.read_table(path)
    out: dict[tuple[str, str], SynRecord] = {}
    for row in table.to_pylist():
        assoc = tuple(
            frozenset((p["idx"], p["source"]) for p in id_set)
            for id_set in row["assoc_sets"]
        )
        rec = SynRecord(
            parser_name=row["parser_name"],
            entity_class=row["entity_class"],
            term_norm=row["term_norm"],
            terms=tuple(row["terms"]),
            is_symbolic=row["is_symbolic"],
            assoc_sets=assoc,
            agg_strategy=row["agg_strategy"],
        )
        out[(rec.parser_name, rec.term_norm)] = rec
    return out


def load_metadata(path: str) -> dict[tuple[str, str], dict]:
    """(parser_name, idx) -> {default_label, annotation_score, data_origin}."""
    table = pq.read_table(path)
    return {
        (r["parser_name"], r["idx"]): {
            "default_label": r["default_label"],
            "annotation_score": r["annotation_score"],
            "data_origin": r["data_origin"],
        }
        for r in table.to_pylist()
    }


@dataclass
class MatchTable:
    """Surface-form match dictionary: the Aho-Corasick payload equivalent.

    ``by_surface`` maps each *lowercased* surface form to its entries.
    """

    by_surface: dict[str, list[MatchEntry]]


def load_match_table(curations_path: str) -> MatchTable:
    table = pq.read_table(curations_path)
    by_surface: dict[str, list[MatchEntry]] = {}
    for r in table.to_pylist():
        surface = r["curated_synonym"]
        entry = MatchEntry(
            parser_name=r["parser_name"],
            entity_class=r["entity_class"],
            term_norm=r["term_norm"],
            original_case=surface,
            case_sensitive=r["case_sensitive"],
            mention_confidence=r["mention_confidence"],
        )
        by_surface.setdefault(surface.lower(), []).append(entry)
    return MatchTable(by_surface=by_surface)
