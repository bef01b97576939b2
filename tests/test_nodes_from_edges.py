"""nodes_from_edges: one per-block curie pass and a driver fold.

The node set is bounded by the ontology, so node derivation needs no
shuffle; these tests pin that it runs one Ray Data execution with no sort,
and that empty, zero-row and zero-column edge blocks add nothing."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from kazu_ray.schemas import EDGES_SCHEMA, NODES_SCHEMA


def _edges(rows) -> pa.Table:
    return pa.Table.from_pylist(
        [{"subj": s, "pred": p, "obj": o, "n_docs": 1, "confidence": 1} for s, p, o in rows],
        schema=EDGES_SCHEMA,
    )


def _node_table(nodes) -> pa.Table:
    import ray

    tables = [t for t in ray.get(nodes.to_arrow_refs()) if t.num_columns]
    return pa.concat_tables(tables) if tables else NODES_SCHEMA.empty_table()


@pytest.fixture(scope="module")
def curies(compiled_dicts):
    """Three ontology CURIEs with their metadata labels."""
    meta = pq.read_table(compiled_dicts.metadata_path, columns=["idx", "default_label"])
    return dict(zip(meta["idx"].to_pylist()[:3], meta["default_label"].to_pylist()[:3]))


def _expected(curies: dict) -> pa.Table:
    from kazu_ray.ontology.synth import find_kb

    cs = sorted(curies)
    return pa.Table.from_pydict(
        {"curie": cs, "source": [find_kb(c) for c in cs],
         "default_label": [curies[c] for c in cs]},
        schema=NODES_SCHEMA,
    )


def _graph(curies: dict) -> list[pa.Table]:
    """Two edge blocks naming every curie: one as a co-occurs subject only,
    the others as objects; MENTION: subjects and doc ids are not nodes."""
    a, b, c = sorted(curies)
    return [
        _edges([("doc1", "mentions", c), ("MENTION:x", "maps-to", c)]),
        _edges([(a, "co-occurs", b), ("doc2", "mentions", b)]),
    ]


def test_empty_edges(ray_session, compiled_dicts):
    import ray.data as rd

    from kazu_ray.stages.triples import nodes_from_edges

    nodes = nodes_from_edges(
        rd.from_arrow(EDGES_SCHEMA.empty_table()), compiled_dicts.metadata_path
    )
    assert nodes.count() == 0
    assert _node_table(nodes).equals(NODES_SCHEMA.empty_table())


def test_zero_row_and_zero_column_blocks(ray_session, compiled_dicts, curies):
    import ray.data as rd

    from kazu_ray.stages.triples import nodes_from_edges

    first, second = _graph(curies)
    blocks = [pa.table({}), first, EDGES_SCHEMA.empty_table(), pa.table({}), second]
    nodes = nodes_from_edges(rd.from_arrow(blocks), compiled_dicts.metadata_path)
    assert _node_table(nodes).equals(_expected(curies))


def test_exchange_output_blocks(ray_session, compiled_dicts, curies):
    """canonicalize_edges' sort-based exchange emits zero-column blocks for
    its empty partitions; the fold skips them."""
    import ray.data as rd

    from kazu_ray.stages.triples import canonicalize_edges, nodes_from_edges

    partial = rd.from_arrow(_graph(curies))
    edges = canonicalize_edges(partial).materialize()
    nodes = nodes_from_edges(edges, compiled_dicts.metadata_path)
    assert _node_table(nodes).equals(_expected(curies))


def test_one_execution_without_sort(ray_session, compiled_dicts, curies, monkeypatch):
    """Node derivation over materialized edges is one Ray Data execution
    with no Sort / SortReduce operator: no shuffle comes back."""
    import ray.data as rd
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    from kazu_ray.stages.triples import nodes_from_edges

    edges = rd.from_arrow(_graph(curies)).materialize()
    plans = []
    execute = StreamingExecutor.execute

    def counting_execute(self, dag, initial_stats=None):
        plans.append(dag.dag_str)
        return execute(self, dag, initial_stats)

    monkeypatch.setattr(StreamingExecutor, "execute", counting_execute)
    nodes = nodes_from_edges(edges, compiled_dicts.metadata_path).materialize()
    assert len(plans) == 1, plans
    assert "MapBatches(curie_batch)" in plans[0]
    assert "Sort" not in plans[0]
    assert "Sort" not in nodes.stats()
    assert _node_table(nodes).equals(_expected(curies))
