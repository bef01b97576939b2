"""Dictionary-compile job: ontology sources -> broadcastable side tables.

Re-realizes the reference's build-time ``OntologyParser.populate_databases``
path (resolve_synonyms groupby + curation generation + metadata export,
/root/reference/kazu/ontology_preprocessing/base.py:846-997, 1095-1147)
as a Ray Data job:

    from_pandas(long-thin synonym frame)
      -> map_batches(term_norm + is_symbolic)          # vectorizable scalar fns
      -> hash_reduce(parser_name, term_norm)            # THE compile shuffle
      -> score_and_group_ids per group                 # EquivalentIdSet clustering
      -> write synonyms.parquet / metadata.parquet / curations.parquet

At 10^6+ synonym rows per real ontology this runs as a distributed
shuffle; the outputs are small side tables that runtime stages broadcast
(read once per actor in ``__init__``), replacing the reference's
singleton in-memory DBs and diskcache.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from ..constants import (
    AGG_CUSTOM,
    AGG_MERGED_NON_SYMBOLIC,
    AGG_RESOLVED_BY_SIMILARITY,
    AGG_RESOLVED_BY_XREF,
    AGG_UNAMBIGUOUS,
    HIGHLY_LIKELY,
    PROBABLE,
)
from ..exchange import hash_reduce
from ..functions.normalize import classify_symbolic, normalize
from ..state.embedder import default_embedder
from .synth import find_kb, metadata_frame, synonym_frame

SYNONYM_MERGE_THRESHOLD = 0.70  # reference base.py synonym_merge_threshold

SYNONYMS_SCHEMA = pa.schema(
    [
        ("parser_name", pa.string()),
        ("entity_class", pa.string()),
        ("term_norm", pa.string()),
        ("terms", pa.list_(pa.string())),
        ("is_symbolic", pa.bool_()),
        ("mapping_types", pa.list_(pa.string())),
        (
            "assoc_sets",
            pa.list_(pa.list_(pa.struct([("idx", pa.string()), ("source", pa.string())]))),
        ),
        ("agg_strategy", pa.string()),
    ]
)


@dataclass(frozen=True)
class CompiledDicts:
    synonyms_path: str
    metadata_path: str
    curations_path: str
    xrefs_path: str | None = None
    contexts_path: str | None = None


def score_and_group_ids(
    ids_and_source: set[tuple[str, str]],
    is_symbolic: bool,
    labels_by_idx: dict[str, str],
    scorer,
) -> tuple[list[list[tuple[str, str]]], str]:
    """Cluster the ids behind one normalized synonym into equivalent-id sets.

    Default algorithm of the reference (base.py:895-997): single id or
    non-symbolic synonym -> one set; otherwise greedy agglomeration by
    default-label string similarity above SYNONYM_MERGE_THRESHOLD.
    """
    if len(ids_and_source) == 1:
        return [sorted(ids_and_source)], AGG_UNAMBIGUOUS
    if not is_symbolic:
        return [sorted(ids_and_source)], AGG_MERGED_NON_SYMBOLIC
    pairs = sorted(ids_and_source)
    labels = [labels_by_idx.get(p[0], p[0]) for p in pairs]
    # encode each distinct label once; cluster comparisons are dot
    # products on the cached vectors (similarity() would re-encode both
    # sides every call — quadratic re-encoding on big groups)
    vec_of = {lbl: scorer.encode(lbl) for lbl in set(labels)}
    clusters: list[tuple[set[tuple[str, str]], list[np.ndarray]]] = []
    for pair, label in zip(pairs, labels):
        v = vec_of[label]
        best, best_score = None, 0.0
        for cluster in clusters:
            sim = max(float(v @ cv) for cv in cluster[1])
            if sim > SYNONYM_MERGE_THRESHOLD and sim > best_score:
                best, best_score = cluster, sim
        if best is None:
            clusters.append(({pair}, [v]))
        else:
            best[0].add(pair)
            best[1].append(v)
    return [sorted(c[0]) for c in clusters], AGG_RESOLVED_BY_SIMILARITY


def group_ids_by_xref(
    ids_and_source: set[tuple[str, str]],
    xrefs_of,
) -> list[list[tuple[str, str]]] | None:
    """OpenTargets-disease build-time grouping (reference
    OpenTargetsDiseaseOntologyParser.score_and_group_ids,
    parsers.py:145-211): pairwise dbXRef-intersection buckets; ids whose
    xref evidence is confused (two buckets sharing an id) make the whole
    group fall back to the default algorithm (return None)."""
    import itertools

    pairs = sorted(ids_and_source)
    unmapped = set(pairs)
    groups: dict[frozenset, set] = {}
    for (p1, x1), (p2, x2) in itertools.combinations(
        ((p, xrefs_of(p[0])) for p in pairs), r=2
    ):
        matched = frozenset(x1 & x2)
        if matched:
            groups.setdefault(matched, set()).update((p1, p2))
            unmapped.discard(p1)
            unmapped.discard(p2)
    if len(groups) > 1:
        for s1, s2 in itertools.combinations(groups.values(), r=2):
            if not s1.isdisjoint(s2):
                return None  # confused xref evidence -> default method
    out = [sorted(g) for g in groups.values()]
    out.extend([p] for p in sorted(unmapped))
    return out


def group_ids_by_label(
    ids_and_source: set[tuple[str, str]],
    labels_by_idx: dict[str, str],
) -> list[list[tuple[str, str]]]:
    """OpenTargets-target build-time grouping (reference
    OpenTargetsTargetOntologyParser.score_and_group_ids,
    parsers.py:318-354): Ensembl ids sharing a default label (isoform
    locations of one gene) form one equivalent-id set."""
    by_label: dict[str, list] = {}
    for pair in sorted(ids_and_source):
        by_label.setdefault(labels_by_idx.get(pair[0], pair[0]), []).append(pair)
    return [by_label[k] for k in sorted(by_label)]


def _add_norm_columns(df: pd.DataFrame) -> pd.DataFrame:
    # scalar python fns over strings; lru-cached per worker
    df = df.copy()
    df["term_norm"] = [
        normalize(s, ec) for s, ec in zip(df["syn"], df["entity_class"])
    ]
    df["syn_symbolic"] = [
        classify_symbolic(s, ec) for s, ec in zip(df["syn"], df["entity_class"])
    ]
    return df


class _ResolveGroups:
    """Reducer over one hash(parser_name, term_norm) exchange partition:
    resolves every (parser_name, term_norm) group inside the partition in
    one call, amortizing per-group task overhead — the same
    coarse-key-then-vectorize pattern as the LSH bucketing.  Each real
    group still gets exact reference semantics."""

    def __init__(self, labels_by_idx: dict[str, str], grouping: dict | None = None):
        self.labels_by_idx = labels_by_idx
        # real-weights embedding scorer (SapBERT role in the reference's
        # default score_and_group_ids, base.py:895-997)
        self.scorer = default_embedder()
        # jsonl-parser build-time grouping hints (parsers.grouping_hints):
        # {"modes": {parser: "xref"|"label"}, "xrefs": {(parser, idx): set}}
        self.group_modes = (grouping or {}).get("modes", {})
        self.xrefs = (grouping or {}).get("xrefs", {})

    def _resolve_ids(self, parser: str, ids_and_source, is_symbolic):
        mode = self.group_modes.get(parser)
        if mode and len(ids_and_source) > 1:
            if mode == "xref":
                assoc = group_ids_by_xref(
                    ids_and_source,
                    lambda idx: self.xrefs.get(
                        (parser, idx), frozenset({idx.replace("_", ":")})
                    ),
                )
                if assoc is not None:
                    return assoc, AGG_RESOLVED_BY_XREF
                # confused xrefs -> reference falls back to default
            elif mode == "label":
                return (
                    group_ids_by_label(ids_and_source, self.labels_by_idx),
                    AGG_CUSTOM,
                )
        return score_and_group_ids(
            ids_and_source, is_symbolic, self.labels_by_idx, self.scorer
        )

    def __call__(self, part: pd.DataFrame) -> pa.Table:
        cols = {k: [] for k in (
            "parser_name", "entity_class", "term_norm", "terms", "is_symbolic",
            "mapping_types", "assoc_sets", "agg_strategy",
        )}
        for (parser, term_norm), group in part.groupby(["parser_name", "term_norm"], sort=False):
            terms = sorted(set(group["syn"]))
            # reference semantics: symbolic iff EVERY raw surface is symbolic
            is_symbolic = bool(group["syn_symbolic"].all())
            ids_and_source = {(idx, find_kb(idx)) for idx in group["idx"]}
            assoc, strategy = self._resolve_ids(parser, ids_and_source, is_symbolic)
            cols["parser_name"].append(parser)
            cols["entity_class"].append(group["entity_class"].iloc[0])
            cols["term_norm"].append(term_norm)
            cols["terms"].append(terms)
            cols["is_symbolic"].append(is_symbolic)
            cols["mapping_types"].append(sorted(set(group["mapping_type"])))
            cols["assoc_sets"].append(
                [[{"idx": i, "source": s} for i, s in id_set] for id_set in assoc]
            )
            cols["agg_strategy"].append(strategy)
        return pa.Table.from_pydict(cols, schema=SYNONYMS_SCHEMA)


def default_curations(syn_df: pd.DataFrame) -> pd.DataFrame:
    """Autocuration-style defaults (reference base.py:363-524 in spirit):

    - symbolic surface forms of <=4 chars are case-sensitive (guards traps
      like "ALL" / "AD" against common lowercase words);
    - long non-symbolic forms are HIGHLY_LIKELY mentions, everything else
      PROBABLE.
    """
    syns = syn_df["syn"].tolist()
    classes = syn_df["entity_class"].tolist()
    sym = [classify_symbolic(s, ec) for s, ec in zip(syns, classes)]
    df = pd.DataFrame(
        {
            "parser_name": syn_df["parser_name"].tolist(),
            "entity_class": classes,
            "curated_synonym": syns,
            "term_norm": [normalize(s, ec) for s, ec in zip(syns, classes)],
            "case_sensitive": [bool(y and len(s) <= 4) for s, y in zip(syns, sym)],
            "mention_confidence": [
                HIGHLY_LIKELY if (not y and len(s) >= 5) else PROBABLE
                for s, y in zip(syns, sym)
            ],
        }
    )
    # one curation per (parser, surface): max confidence, any case-sensitivity
    return (
        df.groupby(["parser_name", "entity_class", "curated_synonym", "term_norm"], as_index=False)
        .agg({"case_sensitive": "any", "mention_confidence": "max"})
    )


def compile_dictionaries(
    out_dir: str,
    source_df: pd.DataFrame | None = None,
    *,
    curated_terms: list | None = None,
    parser_actions: list | None = None,
    synonym_generators=None,
    grouping: dict | None = None,
) -> CompiledDicts:
    """Run the compile job; returns paths of the three side tables.

    :param curated_terms: list of :class:`~.curations.CuratedTerm`
        behaviour overrides (IGNORE / ADD_FOR_LINKING_ONLY / ...)
    :param parser_actions: list of :class:`~.curations.ParserAction`
        (DROP_IDS_FROM_PARSER) applied before compile
    :param synonym_generators: a CombinatorialSynonymGenerator to expand
        surface forms (ontology/generate.py), or None
    :param grouping: build-time id-grouping hints from
        :func:`..ontology.parsers.grouping_hints` — per-parser mode
        ("xref" / "label"), per-(parser, idx) xref sets, and annotation
        scores (merged into metadata.parquet)
    """
    import ray
    import ray.data as rd

    from .curations import apply_curations, apply_parser_actions

    os.makedirs(out_dir, exist_ok=True)
    syn_df = source_df if source_df is not None else synonym_frame()
    if source_df is not None:
        # derive per-id metadata from the source frame itself (custom /
        # real-format parser inputs carry their labels inline; the synth
        # metadata table only covers the synthetic sources)
        meta_df = (
            syn_df[["parser_name", "idx", "default_label"]]
            .drop_duplicates(subset=["parser_name", "idx"])
            .reset_index(drop=True)
        )
        scores = (grouping or {}).get("annotation_scores", {})
        meta_df["annotation_score"] = [
            scores.get((p, i), 0)
            for p, i in zip(meta_df["parser_name"], meta_df["idx"])
        ]
        meta_df["data_origin"] = "source_df"
    else:
        meta_df = metadata_frame()
    if parser_actions:
        syn_df, meta_df = apply_parser_actions(syn_df, meta_df, parser_actions)
    if synonym_generators is not None:
        from .generate import expand_frame

        syn_df = expand_frame(syn_df, synonym_generators)
    labels_by_idx = dict(zip(meta_df["idx"], meta_df["default_label"]))

    metadata_path = os.path.join(out_dir, "metadata.parquet")
    pq.write_table(pa.Table.from_pandas(meta_df, preserve_index=False), metadata_path)

    ner_curations = default_curations(syn_df)
    if curated_terms:
        syn_df, ner_curations = apply_curations(
            syn_df, ner_curations, curated_terms, normalize
        )
    curations_path = os.path.join(out_dir, "curations.parquet")
    pq.write_table(
        pa.Table.from_pandas(ner_curations, preserve_index=False), curations_path
    )

    synonyms_path = os.path.join(out_dir, "synonyms.parquet")
    ds = rd.from_pandas(syn_df)
    if len(syn_df) > 10_000:
        ds = ds.repartition(32)
    # broadcast the label map once; each resolve task reads it from the
    # object store instead of paying actor-pool spawn latency (the
    # resolve state is just this dict + a cheap embedder)
    import ray as _ray

    labels_ref = _ray.put((labels_by_idx, grouping))

    def _resolve_part(part: pa.Table) -> pa.Table:
        labels, grp = _ray.get(labels_ref)
        return _ResolveGroups(labels, grp)(part.to_pandas())

    # all rows of one (parser, term_norm) group land in one of 64
    # partitions, many groups per partition
    compiled = hash_reduce(
        ds.map_batches(_add_norm_columns, batch_format="pandas"),
        ["parser_name", "term_norm"], _resolve_part, 64,
    )
    batches = [
        b.cast(SYNONYMS_SCHEMA)
        for b in compiled.iter_batches(batch_format="pyarrow", batch_size=4096)
    ]
    table = pa.concat_tables(batches) if batches else SYNONYMS_SCHEMA.empty_table()
    pq.write_table(table, synonyms_path)

    from .synth import xref_frame

    xrefs_path = os.path.join(out_dir, "xrefs.parquet")
    pq.write_table(pa.Table.from_pandas(xref_frame(), preserve_index=False), xrefs_path)

    # Gilda-style per-ID disambiguation contexts (reference
    # context_scoring.GildaTfIdfScorer contexts; strategies.py:272-358):
    # the reference ships wikipedia-description contexts in the model
    # pack; built from scratch, the id's own surface forms + default
    # label are the context corpus.  Ontology-sized, so a driver groupby
    # (same footing as labels_by_idx above).
    dedup = syn_df[["parser_name", "idx", "syn"]].drop_duplicates()
    dedup = dedup.sort_values(["parser_name", "idx", "syn"])
    ctx = (
        dedup.groupby(["parser_name", "idx"], sort=False)["syn"]
        .agg(" ".join)
        .reset_index(name="context")
    )
    ctx["context"] = (
        (ctx["idx"].map(labels_by_idx).fillna("") + " " + ctx["context"]).str.strip()
    )
    contexts_path = os.path.join(out_dir, "contexts.parquet")
    pq.write_table(pa.Table.from_pandas(ctx, preserve_index=False), contexts_path)
    return CompiledDicts(
        synonyms_path, metadata_path, curations_path, xrefs_path, contexts_path
    )
