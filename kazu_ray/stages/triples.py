"""Triple emission + canonicalization: the KG materialization stages.

Flatten (doc, entity, mapping) into (subj, pred, obj) triples, then
canonicalize with an aggregation shuffle.  Skew note (SURVEY.md §4):
ultra-common keys ("cancer", "EGFR") would make a naive
``groupby(subj,pred,obj)`` reduce-side-heavy, so we pre-aggregate inside
``map_batches`` first (combiner pattern — each batch emits at most one
row per distinct triple), which bounds any hot key's shuffle volume to
one row per upstream block; the final groupby then only merges partials.
This dominates key-salting for a dedup/count reduction, since the
partial output is already the salted-round result.
"""

from __future__ import annotations

import pyarrow as pa

from ..constants import PRED_CO_OCCURS, PRED_MAPS_TO, PRED_MENTIONS
from ..exchange import hash_reduce
from ..schemas import EDGES_SCHEMA, NODES_SCHEMA, TRIPLES_SCHEMA


def doc_triples(doc_id: str, ents: list[dict], out: dict) -> None:
    """Append one document's triples to the column accumulator ``out``.

    Emitted per document (reference north-star semantics):
      (doc_id,            mentions,  <curie>)   per distinct grounded curie
      (MENTION:<norm>,    maps-to,   <curie>)   per distinct (match_norm, curie)
      (<curie_a>,         co-occurs, <curie_b>) per distinct pair, a < b
    """
    subj, pred, obj = out["subj"], out["pred"], out["obj"]
    tdoc, conf = out["doc_id"], out["confidence"]
    curie_conf: dict[str, int] = {}
    maps_to: set[tuple[str, str]] = set()
    for e in ents:
        for m in e["mappings"]:
            c = m["idx"]
            curie_conf[c] = max(curie_conf.get(c, 0), e["mention_confidence"])
            maps_to.add((f"MENTION:{e['match_norm']}", c))
    curies = sorted(curie_conf)
    for c in curies:
        subj.append(doc_id); pred.append(PRED_MENTIONS); obj.append(c)
        tdoc.append(doc_id); conf.append(curie_conf[c])
    for s, c in sorted(maps_to):
        subj.append(s); pred.append(PRED_MAPS_TO); obj.append(c)
        tdoc.append(doc_id); conf.append(curie_conf[c])
    for i in range(len(curies)):
        for j in range(i + 1, len(curies)):
            subj.append(curies[i]); pred.append(PRED_CO_OCCURS); obj.append(curies[j])
            tdoc.append(doc_id)
            conf.append(min(curie_conf[curies[i]], curie_conf[curies[j]]))


def new_triple_columns() -> dict:
    return {"subj": [], "pred": [], "obj": [], "doc_id": [], "confidence": []}


def triple_columns_to_table(out: dict) -> pa.Table:
    return pa.Table.from_pydict(out, schema=TRIPLES_SCHEMA)


def emit_triples_batch(batch: pa.Table) -> pa.Table:
    """map_batches UDF: doc rows (with final ``entities``) -> partial edge
    rows (triples through the per-batch combiner, like the fused stage)."""
    out = new_triple_columns()
    for doc_id, ents in zip(
        batch.column("doc_id").to_pylist(), batch.column("entities").to_pylist()
    ):
        doc_triples(doc_id, ents, out)
    return partial_edge_agg(triple_columns_to_table(out))


def partial_edge_agg(batch: pa.Table) -> pa.Table:
    """Combiner: within-batch (subj,pred,obj) -> (n_docs, max confidence).

    pyarrow-native group_by (C++ hash aggregation); a doc's triples are
    already distinct within the doc, so count == distinct-doc count."""
    out = batch.group_by(["subj", "pred", "obj"]).aggregate(
        [("doc_id", "count"), ("confidence", "max")]
    )
    out = out.rename_columns(["subj", "pred", "obj", "n_docs", "confidence"])
    return out.set_column(
        out.schema.get_field_index("n_docs"),
        "n_docs",
        out.column("n_docs").cast(pa.int64()),
    )


_EDGE_MERGE_PARTS = 24  # ontology-bounded key space: a few coarse buckets


def _merge_edge_partials(group: pa.Table) -> pa.Table:
    """Within one coarse partition: merge partial rows exactly
    (sum n_docs, max confidence) with pyarrow's C++ hash aggregation."""
    out = (
        group.select(["subj", "pred", "obj", "n_docs", "confidence"])
        .group_by(["subj", "pred", "obj"])
        .aggregate([("n_docs", "sum"), ("confidence", "max")])
    )
    return out.rename_columns(["subj", "pred", "obj", "n_docs", "confidence"])


def canonicalize_edges(partial_ds):
    """partial edge rows (``partial_edge_agg`` output, as the fused stage
    and ``emit_triples_batch`` emit) -> canonical edges Dataset.

    Two-tier canonicalization:

    - ``mentions`` edges are keyed by (doc_id, curie) and every document
      lives in exactly one upstream batch, so after the per-batch
      combiner they are globally unique BY CONSTRUCTION — they bypass
      the shuffle entirely (the bulk of the edge volume never moves).
    - ``maps-to`` / ``co-occurs`` edges need cross-document aggregation;
      their distinct-key space is bounded by the ontology (not the
      corpus), so the groupby shuffle they go through is small.  The
      per-batch combiner also bounds skew: a hot key ("cancer", "EGFR")
      contributes at most one partial row per upstream block, so no
      reduce-side straggler can form — pre-aggregation subsumes key
      salting for dedup/count reductions.

    The partials are materialized so the two branches don't re-execute
    the upstream NER pipeline; at full corpus scale run the pipeline
    through ``run_partitioned`` where each partition's partials are
    bounded before this step.
    """
    import pyarrow.compute as pc

    partial = partial_ds.materialize()
    mentions = partial.map_batches(
        lambda t: t.filter(pc.equal(t["pred"], "mentions")), batch_format="pyarrow"
    )
    others = partial.map_batches(
        lambda t: t.filter(pc.not_equal(t["pred"], "mentions")), batch_format="pyarrow"
    )
    # ontology-bounded key space, but the partial-row volume is
    # blocks x keys: one C++ hash-aggregation per exchange partition
    others_agg = hash_reduce(
        others, ["subj", "pred", "obj"], _merge_edge_partials, _EDGE_MERGE_PARTS
    )

    def _to_edge_schema(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [
                t.column("subj").cast(pa.string()),
                t.column("pred").cast(pa.string()),
                t.column("obj").cast(pa.string()),
                t.column("n_docs").cast(pa.int64()),
                t.column("confidence").cast(pa.int32()),
            ],
            schema=EDGES_SCHEMA,
        )

    return mentions.map_batches(_to_edge_schema, batch_format="pyarrow").union(
        others_agg.map_batches(_to_edge_schema, batch_format="pyarrow")
    )


def nodes_from_edges(edges_ds, metadata_path: str):
    """Sorted node table ``(curie, source, default_label)`` from the
    canonical edges plus the metadata side table: no second corpus pass
    (every grounded CURIE is an edge ``obj`` or a co-occurs ``subj``) and
    no shuffle.  One task pass emits each block's distinct curies; the
    driver folds them block by block (unique, sort, KB and label lookup).
    Bound: the driver holds at most one string per ontology CURIE plus
    one block's distinct curies, never an edge.

    ``batch_size=None`` gives one batch per block.  Ray Data passes empty
    blocks on as zero-column tables, which the fold skips.  ``materialize``
    keeps this one execution: a lazy ``to_arrow_refs`` runs a second one
    to fetch the schema."""
    import ray
    import ray.data as rd
    import pyarrow.compute as pc

    from ..ontology.synth import find_kb
    from ..state.side_tables import load_metadata

    def curie_batch(t: pa.Table) -> pa.Table:
        co = t.filter(pc.equal(t.column("pred"), PRED_CO_OCCURS))
        curies = pa.concat_arrays(
            [pc.unique(t.column("obj")), pc.unique(co.column("subj"))]
        )
        mask = pc.invert(pc.starts_with(curies, "MENTION:"))
        return pa.table({"curie": pc.unique(curies.filter(mask))})

    per_block = edges_ds.map_batches(curie_batch, batch_format="pyarrow", batch_size=None)
    curies = pa.array([], pa.string())
    for ref in per_block.materialize().to_arrow_refs():
        t = ray.get(ref)
        if "curie" in t.column_names:
            curies = pc.unique(pa.chunked_array([curies, *t.column("curie").chunks]))
    cs = curies.take(pc.sort_indices(curies)).to_pylist()
    meta = load_metadata(metadata_path)
    labels = {idx: m.get("default_label", "") for (_parser, idx), m in meta.items()}
    return rd.from_arrow(
        pa.Table.from_pydict(
            {
                "curie": cs,
                "source": [find_kb(c) for c in cs],
                "default_label": [labels.get(c, "") for c in cs],
            },
            schema=NODES_SCHEMA,
        )
    )
