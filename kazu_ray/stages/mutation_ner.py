"""Mutation NER stage — SETH analogue.

Reference: SethStep (kazu/steps/ner/seth.py:20-131) runs SETH over py4j
per section, gated by an EntityClassFilter condition (conf/SethStep/
default.yaml: only docs that already carry ``gene`` entities), and emits
``mutation`` entities with the SETH mutation dict in metadata plus a
self-referential PROBABLE Mapping (idx = source = default_label =
entity_class, parser_name "n/a").

Here the detector is the RE2-safe regex engine in functions/mutations.py
(MutationFinder-style, cross-checked against a DuckDB oracle running the
identical pattern); the stage is a stateless ``map_batches`` UDF with
the same condition gate and mapping shape.  SETH's normalization dict
maps to the flat ``mutations_batch`` side table (doc_id, span_idx,
offsets, surface, type, wt/mut/pos, norm) rather than per-entity
metadata — our Arrow entity struct carries no open metadata column.
"""

from __future__ import annotations

import pyarrow as pa

from ..constants import NS_MUTATION_NER, PROBABLE
from ..functions.mutations import find_mutations
from ..functions.normalize import normalize
from ..schemas import ENTITIES_COLUMN

ENTITY_CLASS = "mutation"

_SELF_MAPPING = {
    "parser_name": "n/a",
    "source": ENTITY_CLASS,
    "idx": ENTITY_CLASS,
    "default_label": ENTITY_CLASS,
    "string_match_strategy": NS_MUTATION_NER,
    "string_match_confidence": "PROBABLE",
    "disambiguation_strategy": "",
    "disambiguation_confidence": "",
    "xref_source_parser_name": "",
}


class MutationNer:
    """map_batches UDF: adds mutation entities to doc rows.

    ``condition_classes``: only process docs that already carry an
    entity of one of these classes (reference condition semantics —
    SETH is expensive, docs without gene mentions are skipped); pass
    ``None`` or ``()`` to process every doc.
    """

    def __init__(self, condition_classes: tuple[str, ...] | None = ("gene",)):
        self.condition_classes = frozenset(condition_classes or ())

    def tag_span_text(self, text: str, span_idx: int) -> list[dict]:
        out = []
        for hit in find_mutations(text):
            out.append(
                {
                    "span_idx": span_idx,
                    "start": hit["start"],
                    "end": hit["end"],
                    "match": hit["match"],
                    "match_norm": normalize(hit["match"], ENTITY_CLASS),
                    "entity_class": ENTITY_CLASS,
                    "namespace": NS_MUTATION_NER,
                    "mention_confidence": PROBABLE,
                    "candidates": [],
                    "mappings": [dict(_SELF_MAPPING)],
                }
            )
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        ents_col = (
            batch.column("entities").to_pylist()
            if "entities" in batch.schema.names
            else [[] for _ in range(len(batch))]
        )
        new_col = []
        for spans, ents in zip(batch.column("spans").to_pylist(), ents_col):
            added = list(ents)
            if not self.condition_classes or any(
                e["entity_class"] in self.condition_classes for e in ents
            ):
                for i, sp in enumerate(spans):
                    if sp["text"]:
                        added.extend(self.tag_span_text(sp["text"], i))
            new_col.append(added)
        if "entities" in batch.schema.names:
            batch = batch.drop_columns(["entities"])
        return batch.append_column("entities", pa.array(new_col, type=ENTITIES_COLUMN))


MUTATIONS_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("match", pa.string()),
        ("mutation_type", pa.string()),
        ("norm", pa.string()),
        ("wt", pa.string()),
        ("mut", pa.string()),
        ("pos", pa.int64()),
        ("start", pa.int32()),
        ("end", pa.int32()),
    ]
)


def _inject(doc_id: int, text: str) -> str:
    """Deterministic mutation-mention injection for the oracle query.

    The synthetic ``documents`` corpus is mutation-free word salad, so
    the queryable SETH surface seeds each doc (keyed off doc_id, 3 of
    every 4 docs) with mentions covering the dbSNP / one-letter /
    DNA-substitution / three-letter / frameshift / deletion forms.  The
    DuckDB oracle performs the IDENTICAL string construction in SQL —
    the comparison then checks the extraction engine itself."""
    r = doc_id % 4
    if r == 0:
        return f"{text} Known variant rs{doc_id * 7 + 11} and V600E were detected."
    if r == 1:
        return f"{text} Carrier of c.{doc_id + 100}A>G plus p.Val600Glu mutation."
    if r == 2:
        return f"{text} Frameshift Arg97fs with deletion c.76_78delACT reported."
    return text


FLAT_SCHEMA = pa.schema(
    [("doc_id", pa.int64()), ("match", pa.string()), ("mutation_type", pa.string())]
)


def mutations_flat(batch: pa.Table, inject: bool = False) -> pa.Table:
    """Vectorized (polars) flat extraction: (doc_id, match, mutation_type).

    The alternation is RE2-safe by construction, so the SAME pattern
    string runs under Python ``re`` (entity path), polars' Rust regex
    (this path — leftmost-first alternation like ``re``) and DuckDB
    (the oracle).  ``inject=True`` applies the deterministic corpus
    injection as a vectorized string expression identical to
    ``_inject``."""
    import polars as pl

    from ..functions.mutations import CLASSIFY_RULES, MUTATION_REGEX, T_SUB

    df = pl.from_arrow(batch.select(["doc_id", "text"]))
    scanned = pl.col("text")
    if inject:
        r = pl.col("doc_id") % 4
        scanned = (
            pl.when(r == 0)
            .then(
                pl.col("text")
                + pl.lit(" Known variant rs")
                + (pl.col("doc_id") * 7 + 11).cast(pl.Utf8)
                + pl.lit(" and V600E were detected.")
            )
            .when(r == 1)
            .then(
                pl.col("text")
                + pl.lit(" Carrier of c.")
                + (pl.col("doc_id") + 100).cast(pl.Utf8)
                + pl.lit("A>G plus p.Val600Glu mutation.")
            )
            .when(r == 2)
            .then(
                pl.col("text")
                + pl.lit(" Frameshift Arg97fs with deletion c.76_78delACT reported.")
            )
            .otherwise(pl.col("text"))
        )
    cls = None
    for rx, t in CLASSIFY_RULES:
        cond = pl.col("match").str.contains(rx)
        cls = pl.when(cond).then(pl.lit(t)) if cls is None else cls.when(cond).then(pl.lit(t))
    cls = cls.otherwise(pl.lit(T_SUB))
    out = (
        df.with_columns(match=scanned.str.extract_all(MUTATION_REGEX))
        .select("doc_id", "match")
        .explode("match", empty_as_null=True)
        .drop_nulls("match")
        .with_columns(mutation_type=cls)
    )
    return out.to_arrow().cast(FLAT_SCHEMA)


def q_mutation_mentions(sf_dir: str):
    """Flat mutation-mention table over the documents corpus (with the
    deterministic injection above) — the SethStep queryable surface."""
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = ds.map_batches(
        lambda b: mutations_flat(b, inject=True), batch_format="pyarrow"
    )
    return out.sort(["doc_id", "match", "mutation_type"])


def mutation_oracle_sql() -> str:
    """DuckDB SQL running the SAME regex alternation and classification
    chain as functions/mutations.py (RE2-compatible by construction)."""
    from ..functions.mutations import CLASSIFY_RULES, MUTATION_REGEX, T_SUB

    cases = "\n              ".join(
        f"WHEN regexp_matches(match, '{rx}') THEN '{t}'" for rx, t in CLASSIFY_RULES
    )
    return f"""
        WITH aug AS (
          SELECT doc_id,
            CASE CAST(doc_id % 4 AS INTEGER)
              WHEN 0 THEN text || ' Known variant rs' || CAST(doc_id * 7 + 11 AS VARCHAR)
                          || ' and V600E were detected.'
              WHEN 1 THEN text || ' Carrier of c.' || CAST(doc_id + 100 AS VARCHAR)
                          || 'A>G plus p.Val600Glu mutation.'
              WHEN 2 THEN text || ' Frameshift Arg97fs with deletion c.76_78delACT reported.'
              ELSE text END AS t
          FROM documents
        ), hits AS (
          SELECT doc_id, unnest(regexp_extract_all(t, '{MUTATION_REGEX}')) AS match
          FROM aug
        )
        SELECT doc_id, match,
          CASE {cases}
              ELSE '{T_SUB}' END AS mutation_type
        FROM hits
        ORDER BY doc_id, match, mutation_type
    """


def mutations_batch(batch: pa.Table, text_fn=None) -> pa.Table:
    """Flat mutation-mention extraction over a (doc_id, text) batch —
    the queryable SETH output table.  ``text_fn(doc_id, text) -> str``
    optionally rewrites the scanned text (used by the oracle query to
    inject deterministic mentions into the synthetic corpus)."""
    rows = []
    for doc_id, text in zip(
        batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
    ):
        scanned = text_fn(doc_id, text) if text_fn else text
        for hit in find_mutations(scanned):
            rows.append(
                {
                    "doc_id": doc_id,
                    "match": hit["match"],
                    "mutation_type": hit["mutation_type"],
                    "norm": hit["norm"],
                    "wt": hit["wt"],
                    "mut": hit["mut"],
                    "pos": hit["pos"],
                    "start": hit["start"],
                    "end": hit["end"],
                }
            )
    return pa.Table.from_pylist(rows, schema=MUTATIONS_SCHEMA)
