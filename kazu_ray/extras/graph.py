"""Graph analytics over materialized KG edge tables.

The KG pipeline materializes (subj, pred, obj) edge tables
(stages/triples.py); ranking the resulting graph is the canonical
downstream consumer — entity importance for disambiguation priors,
crawl scheduling, and corpus-curriculum weighting all reduce to
PageRank over a node/edge table.

Ray-Data-first power iteration (node and edge tables are Datasets
end-to-end; the driver sees one scalar per iteration):

- out-degrees: one ``groupby(src).count()``;
- each iteration joins the rank table to the edge table partition-wise
  (:func:`kazu_ray.joins.hash_join` — the rank table is the small,
  changing side; the edge table is scanned per iteration but at cluster
  scale would be hash-partitioned by src ONCE and cached, so only the
  rank vector moves);
- contributions aggregate with ``groupby(dst).sum``; nodes with no
  in-edges rejoin via a left join against the node table;
- dangling mass (rank parked on sink nodes) is a scalar ``sum()``
  redistributed uniformly, keeping ||rank||_1 = 1 exactly.

Cross-engine: DuckDB replays the identical fixed-iteration recurrence
(:func:`pagerank_duckdb`); scores match to float64 round-off (summation
order is the only divergence), gated at 1e-9 in tests/test_graph.py and
the driver-recorded pagerank gate in extras/metrics.py.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from kazu_ray.exchange import hash_reduce
from kazu_ray.joins import hash_join

RANK_SCHEMA = pa.schema([("node", pa.int64()), ("rank", pa.float64())])


def _pagerank_driver(edges: pa.Table, damping: float, n_iter: int) -> pa.Table:
    """Exact bounded-input path: the identical recurrence vectorized in
    numpy on the driver (the sanctioned small path, as in
    cluster.connected_components)."""
    import numpy as np

    src = edges.column("src").to_numpy(zero_copy_only=False)
    dst = edges.column("dst").to_numpy(zero_copy_only=False)
    nodes, idx = np.unique(np.concatenate([src, dst]), return_inverse=True)
    src_i, dst_i = idx[: len(src)], idx[len(src):]
    n = len(nodes)
    deg = np.bincount(src_i, minlength=n)
    rank = np.full(n, 1.0 / n)
    sending = deg > 0
    safe_deg = np.where(sending, deg, 1).astype(np.float64)
    for _ in range(n_iter):
        dangling = float(rank[~sending].sum())
        teleport = (1.0 - damping) / n + damping * dangling / n
        share = np.where(sending, rank / safe_deg, 0.0)
        contrib = np.bincount(dst_i, weights=share[src_i], minlength=n)
        rank = damping * contrib + teleport
    return pa.table(
        {"node": pa.array(nodes, pa.int64()), "rank": pa.array(rank, pa.float64())}
    )


def pagerank(
    edges_ds,
    damping: float = 0.85,
    n_iter: int = 10,
    num_partitions: int = 16,
    driver_threshold: int = 100_000,
):
    """PageRank over an (src, dst) int64 edge Dataset → (node, rank).

    Fixed ``n_iter`` power iterations (deterministic, cross-engine
    reproducible); parallel edges count once per occurrence, dangling
    nodes redistribute their mass uniformly.

    Edge sets at or below ``driver_threshold`` run the recurrence
    vectorized on the driver (per-iteration Ray execution overhead would
    dominate); above it, the fully dataset-native power iteration whose
    per-iteration driver traffic is one scalar.  The two paths agree to
    float64 summation round-off (test_graph.py pins 1e-12)."""
    import ray.data as rd

    edges = edges_ds.materialize()
    n_edges = edges.count()
    if n_edges == 0:
        return rd.from_arrow(RANK_SCHEMA.empty_table())
    if n_edges <= driver_threshold:
        import ray

        blocks = [t for t in ray.get(edges.to_arrow_refs()) if t.num_rows]
        table = pa.concat_tables(blocks).combine_chunks()
        return rd.from_arrow(_pagerank_driver(table, damping, n_iter))

    nodes = (
        edges.select_columns(["src"])
        .rename_columns({"src": "node"})
        .union(edges.select_columns(["dst"]).rename_columns({"dst": "node"}))
        .groupby("node")
        .count()
        .select_columns(["node"])
        .materialize()
    )
    n = nodes.count()

    deg = (
        edges.groupby("src")
        .count()
        .rename_columns({"src": "node", "count()": "deg"})
    )
    # node table with out-degree (0 for dangling sinks)
    base = hash_join(
        nodes,
        deg,
        left_on="node",
        right_on="node",
        how="left_outer",
        num_partitions=num_partitions,
        left_schema=pa.schema([("node", pa.int64())]),
        right_schema=pa.schema([("node", pa.int64()), ("deg", pa.int64())]),
    ).map_batches(
        lambda t: t.set_column(
            t.schema.get_field_index("deg"),
            "deg",
            pc.fill_null(t.column("deg"), 0),
        ),
        batch_format="pyarrow",
    ).materialize()

    ranks = base.map_batches(
        lambda t: t.append_column(
            "rank", pa.array([1.0 / n] * t.num_rows, pa.float64())
        ),
        batch_format="pyarrow",
    ).materialize()

    rank_schema = pa.schema(
        [("node", pa.int64()), ("deg", pa.int64()), ("rank", pa.float64())]
    )
    for _ in range(n_iter):
        # rank mass parked on sinks, redistributed uniformly
        dangling = (
            ranks.filter(expr="deg == 0").sum("rank", ignore_nulls=True) or 0.0
        )
        sending = ranks.filter(expr="deg > 0").map_batches(
            lambda t: pa.table(
                {
                    "src_node": t.column("node"),
                    "share": pc.divide(
                        t.column("rank"),
                        pc.cast(t.column("deg"), pa.float64()),
                    ),
                }
            ),
            batch_format="pyarrow",
        )
        contribs = hash_join(
            edges,
            sending,
            left_on="src",
            right_on="src_node",
            num_partitions=num_partitions,
            left_schema=pa.schema([("src", pa.int64()), ("dst", pa.int64())]),
            right_schema=pa.schema(
                [("src_node", pa.int64()), ("share", pa.float64())]
            ),
        )
        sums = (
            contribs.groupby("dst")
            .sum("share")
            .rename_columns({"dst": "in_node", "sum(share)": "in_sum"})
        )
        joined = hash_join(
            base,
            sums,
            left_on="node",
            right_on="in_node",
            how="left_outer",
            num_partitions=num_partitions,
            left_schema=pa.schema([("node", pa.int64()), ("deg", pa.int64())]),
            right_schema=pa.schema(
                [("in_node", pa.int64()), ("in_sum", pa.float64())]
            ),
        )
        teleport = (1.0 - damping) / n + damping * dangling / n

        def step(t: pa.Table, teleport=teleport) -> pa.Table:
            s = pc.fill_null(t.column("in_sum"), 0.0)
            new = pc.add(
                pc.multiply(s, pa.scalar(damping, pa.float64())),
                pa.scalar(teleport, pa.float64()),
            )
            return pa.table(
                {"node": t.column("node"), "deg": t.column("deg"), "rank": new}
            ).cast(rank_schema)

        ranks = joined.map_batches(step, batch_format="pyarrow").materialize()

    return ranks.select_columns(["node", "rank"])


# ---------------------------------------------------------------------------
# Triangle counting / local clustering coefficient
# ---------------------------------------------------------------------------
#
# Entity co-occurrence graphs (the KG pipeline's co-occurs edges) are
# triangle-dense by construction; triangle counts per node drive the
# local clustering coefficient, a standard KG-quality and community
# signal.  The distributed path is degree-ordered wedge counting
# (Cohen 2009 / Suri & Vassilvitskii 2011 MapReduce formulation):
# orienting every undirected edge from lower (degree, node) rank to
# higher bounds each node's out-degree by O(sqrt(m)), so the wedge set
# generated per pivot is O(m^1.5) total worst-case instead of
# sum(deg^2) — hub-safe on skewed co-occurrence graphs.  Three coarse
# hash exchanges (pair-dedup, wedge-vs-edge match, per-node count),
# each the repo's coarse-key + vectorized map_groups pattern; counts
# are integers so cross-engine parity with DuckDB is EXACT.

TRI_SCHEMA = pa.schema(
    [("node", pa.int64()), ("degree", pa.int64()), ("triangles", pa.int64())]
)

def _triangles_driver(edges: pa.Table) -> pa.Table:
    """Exact bounded-input path: canonical edge set, degree-ordered
    orientation, per-edge sorted-neighbor intersection on the driver."""
    import numpy as np

    src = edges.column("src").to_numpy(zero_copy_only=False).astype(np.int64)
    dst = edges.column("dst").to_numpy(zero_copy_only=False).astype(np.int64)
    keep = src != dst
    lo = np.minimum(src[keep], dst[keep])
    hi = np.maximum(src[keep], dst[keep])
    if len(lo) == 0:
        return TRI_SCHEMA.empty_table()
    uv = np.unique(np.stack([lo, hi], axis=1), axis=0)
    nodes, idx = np.unique(uv.ravel(), return_inverse=True)
    ui, vi = idx.reshape(-1, 2)[:, 0], idx.reshape(-1, 2)[:, 1]
    n = len(nodes)
    deg = np.bincount(ui, minlength=n) + np.bincount(vi, minlength=n)
    # orient low (deg, node-index) rank -> high
    u_first = (deg[ui] < deg[vi]) | ((deg[ui] == deg[vi]) & (ui < vi))
    s = np.where(u_first, ui, vi)
    d = np.where(u_first, vi, ui)
    order = np.lexsort((d, s))
    s, d = s[order], d[order]
    starts = np.searchsorted(s, np.arange(n))
    ends = np.searchsorted(s, np.arange(n) + 1)
    tri = np.zeros(n, dtype=np.int64)
    for a, b in zip(s, d):
        common = np.intersect1d(
            d[starts[a] : ends[a]], d[starts[b] : ends[b]], assume_unique=True
        )
        if len(common):
            tri[a] += len(common)
            tri[b] += len(common)
            np.add.at(tri, common, 1)
    return pa.table(
        {
            "node": pa.array(nodes, pa.int64()),
            "degree": pa.array(deg.astype(np.int64), pa.int64()),
            "triangles": pa.array(tri, pa.int64()),
        }
    )


def triangle_counts(
    edges_ds,
    num_partitions: int | None = None,
    driver_threshold: int = 100_000,
):
    """Per-node triangle counts over an undirected (src, dst) int64 edge
    Dataset → (node, degree, triangles).

    Self-loops are dropped and parallel edges collapse to one; every
    triangle contributes 1 to each of its three corners.  Edge sets at
    or below ``driver_threshold`` run the exact driver path; above it,
    the degree-ordered wedge-count pipeline (three coarse hash
    exchanges, all per-partition work vectorized in polars/numpy).  The
    two paths agree exactly (integer counts; pinned in test_graph.py),
    and DuckDB recomputing the closed-wedge self-join matches exactly
    (triangles_parity gate)."""
    import numpy as np
    import ray.data as rd

    from ..context import shuffle_partitions

    nparts = num_partitions or shuffle_partitions()
    edges = edges_ds.materialize()
    n_edges = edges.count()
    if n_edges == 0:
        return rd.from_arrow(TRI_SCHEMA.empty_table())
    if n_edges <= driver_threshold:
        import ray

        blocks = [t for t in ray.get(edges.to_arrow_refs()) if t.num_rows]
        return rd.from_arrow(_triangles_driver(pa.concat_tables(blocks)))

    def canon(t: pa.Table) -> pa.Table:
        src = t.column("src").to_numpy(zero_copy_only=False).astype(np.int64)
        dst = t.column("dst").to_numpy(zero_copy_only=False).astype(np.int64)
        keep = src != dst
        lo = np.minimum(src[keep], dst[keep])
        hi = np.maximum(src[keep], dst[keep])
        return pa.table({"u": pa.array(lo, pa.int64()), "v": pa.array(hi, pa.int64())})

    def dedup_part(t: pa.Table) -> pa.Table:
        import polars as pl

        return (
            pl.from_arrow(t)
            .unique(subset=["u", "v"])
            .select(["u", "v"])
            .to_arrow()
            .cast(pa.schema([("u", pa.int64()), ("v", pa.int64())]))
        )

    # global pair-dedup is correct because equal pairs share a partition
    ded = hash_reduce(
        edges.map_batches(canon, batch_format="pyarrow"), ["u", "v"], dedup_part, nparts
    ).materialize()

    def endpoints(t: pa.Table) -> pa.Table:
        import numpy as np

        ns = np.concatenate(
            [
                t.column("u").to_numpy(zero_copy_only=False),
                t.column("v").to_numpy(zero_copy_only=False),
            ]
        ).astype(np.int64)
        return pa.table({"node": pa.array(ns)})

    def count_nodes(t: pa.Table) -> pa.Table:
        import polars as pl

        return (
            pl.from_arrow(t)
            .group_by("node")
            .len(name="deg")
            .select(["node", "deg"])
            .to_arrow()
            .cast(pa.schema([("node", pa.int64()), ("deg", pa.int64())]))
        )

    deg = hash_reduce(
        ded.map_batches(endpoints, batch_format="pyarrow"), ["node"], count_nodes, nparts
    ).materialize()

    e1 = hash_join(
        ded,
        deg.rename_columns({"deg": "deg_u"}),
        left_on="u",
        right_on="node",
        num_partitions=nparts,
        left_schema=pa.schema([("u", pa.int64()), ("v", pa.int64())]),
        right_schema=pa.schema([("node", pa.int64()), ("deg_u", pa.int64())]),
    )
    e2 = hash_join(
        e1,
        deg.rename_columns({"deg": "deg_v"}),
        left_on="v",
        right_on="node",
        num_partitions=nparts,
        left_schema=pa.schema(
            [("u", pa.int64()), ("v", pa.int64()), ("deg_u", pa.int64())]
        ),
        right_schema=pa.schema([("node", pa.int64()), ("deg_v", pa.int64())]),
    )

    ORI_SCHEMA = pa.schema(
        [
            ("src", pa.int64()),
            ("dst", pa.int64()),
            ("ddeg", pa.int64()),
        ]
    )

    def orient(t: pa.Table) -> pa.Table:
        import numpy as np

        u = t.column("u").to_numpy(zero_copy_only=False)
        v = t.column("v").to_numpy(zero_copy_only=False)
        du = t.column("deg_u").to_numpy(zero_copy_only=False)
        dv = t.column("deg_v").to_numpy(zero_copy_only=False)
        u_first = (du < dv) | ((du == dv) & (u < v))
        s = np.where(u_first, u, v)
        d = np.where(u_first, v, u)
        dd = np.where(u_first, dv, du)
        return pa.table(
            {
                "src": pa.array(s, pa.int64()),
                "dst": pa.array(d, pa.int64()),
                "ddeg": pa.array(dd, pa.int64()),
            }
        ).cast(ORI_SCHEMA)

    ori = e2.map_batches(orient, batch_format="pyarrow").materialize()

    W_SCHEMA = pa.schema(
        [
            ("a", pa.int64()),
            ("b", pa.int64()),
            ("pivot", pa.int64()),
        ]
    )

    def wedges(t: pa.Table) -> pa.Table:
        import numpy as np
        import polars as pl

        df = pl.from_arrow(t).select(["src", "dst", "ddeg"])
        j = df.join(df, on="src", suffix="_r")
        # rank-order the wedge legs so (a, b) matches the closing edge's
        # own low-rank -> high-rank orientation
        j = j.filter(
            (pl.col("ddeg") < pl.col("ddeg_r"))
            | (
                (pl.col("ddeg") == pl.col("ddeg_r"))
                & (pl.col("dst") < pl.col("dst_r"))
            )
        )
        a = j.get_column("dst").to_numpy().astype(np.int64)
        b = j.get_column("dst_r").to_numpy().astype(np.int64)
        piv = j.get_column("src").to_numpy().astype(np.int64)
        return pa.table(
            {"a": pa.array(a), "b": pa.array(b), "pivot": pa.array(piv)}
        ).cast(W_SCHEMA)

    w = hash_reduce(ori, ["src"], wedges, nparts)

    def tag_edges(t: pa.Table) -> pa.Table:
        import numpy as np

        a = t.column("src").to_numpy(zero_copy_only=False).astype(np.int64)
        b = t.column("dst").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "a": pa.array(a),
                "b": pa.array(b),
                "pivot": pa.array(np.full(len(a), -1, dtype=np.int64)),
            }
        ).cast(W_SCHEMA)

    tagged = ori.map_batches(tag_edges, batch_format="pyarrow")

    def match(t: pa.Table) -> pa.Table:
        import numpy as np
        import polars as pl

        df = pl.from_arrow(t)
        closing = df.filter(pl.col("pivot") == -1).select(["a", "b"])
        wed = df.filter(pl.col("pivot") != -1)
        m = wed.join(closing, on=["a", "b"], how="semi")
        ns = np.concatenate(
            [
                m.get_column("pivot").to_numpy(),
                m.get_column("a").to_numpy(),
                m.get_column("b").to_numpy(),
            ]
        ).astype(np.int64)
        return pa.table({"node": pa.array(ns, pa.int64())})

    # wedges and closing edges meet per (a, b) pair in ONE exchange
    closed = hash_reduce(w.union(tagged), ["a", "b"], match, nparts)
    tcnt = hash_reduce(closed, ["node"], count_nodes, nparts).rename_columns(
        {"deg": "triangles"}
    )

    out = hash_join(
        deg,
        tcnt,
        left_on="node",
        right_on="node",
        how="left_outer",
        num_partitions=nparts,
        left_schema=pa.schema([("node", pa.int64()), ("deg", pa.int64())]),
        right_schema=pa.schema([("node", pa.int64()), ("triangles", pa.int64())]),
    )

    def finish(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": t.column("node"),
                "degree": t.column("deg"),
                "triangles": pc.fill_null(t.column("triangles"), 0),
            }
        ).cast(TRI_SCHEMA)

    return out.map_batches(finish, batch_format="pyarrow")


def triangles_duckdb(con, edges_sql: str) -> list[tuple[int, int, int]]:
    """Ground truth: closed-wedge self-join over the canonical undirected
    edge set (a < b < c enumerates every triangle exactly once).
    Returns sorted (node, degree, triangles) tuples."""
    rows = con.execute(
        f"""
        WITH raw AS ({edges_sql}),
        e AS (SELECT DISTINCT least(src, dst) AS u, greatest(src, dst) AS v
              FROM raw WHERE src <> dst),
        tri AS (SELECT e1.u AS a, e1.v AS b, e2.v AS c
                FROM e e1
                JOIN e e2 ON e2.u = e1.v
                JOIN e e3 ON e3.u = e1.u AND e3.v = e2.v),
        deg AS (SELECT node, COUNT(*) AS degree FROM
                  (SELECT u AS node FROM e UNION ALL SELECT v FROM e)
                GROUP BY 1),
        tn AS (SELECT node, COUNT(*) AS triangles FROM
                 (SELECT a AS node FROM tri UNION ALL SELECT b FROM tri
                  UNION ALL SELECT c FROM tri)
               GROUP BY 1)
        SELECT d.node, d.degree, COALESCE(tn.triangles, 0)
        FROM deg d LEFT JOIN tn USING (node) ORDER BY 1
        """
    ).fetchall()
    return [(int(a), int(b), int(c)) for a, b, c in rows]


# ---------------------------------------------------------------------------
# k-hop reachability (multi-source BFS)
# ---------------------------------------------------------------------------
#
# "Which entities are within k edges of these seed CURIEs" is the
# canonical KG neighborhood query (subgraph extraction for curation
# review, context windows for disambiguation priors).  Bulk-synchronous
# frontier expansion: each hop is one partition-wise join of the edge
# table against the (small, changing) frontier plus one anti-join
# against the visited set — the textbook BSP BFS whose per-iteration
# driver traffic is a single frontier count.  At cluster scale the edge
# table would be hash-partitioned by src once and cached; only frontier
# and visited rows move between hops.

DIST_SCHEMA = pa.schema([("node", pa.int64()), ("dist", pa.int64())])


def _khop_driver(edges: pa.Table, seeds: list[int], k: int) -> pa.Table:
    """Exact bounded-input path: CSR + numpy frontier sweep."""
    import numpy as np

    src = edges.column("src").to_numpy(zero_copy_only=False).astype(np.int64)
    dst = edges.column("dst").to_numpy(zero_copy_only=False).astype(np.int64)
    nodes = np.unique(np.concatenate([src, dst, np.asarray(seeds, np.int64)]))
    si = np.searchsorted(nodes, src)
    di = np.searchsorted(nodes, dst)
    n = len(nodes)
    order = np.argsort(si, kind="stable")
    si, di = si[order], di[order]
    starts = np.searchsorted(si, np.arange(n))
    ends = np.searchsorted(si, np.arange(n) + 1)
    dist = np.full(n, -1, dtype=np.int64)
    frontier = np.unique(np.searchsorted(nodes, np.asarray(seeds, np.int64)))
    dist[frontier] = 0
    for hop in range(1, k + 1):
        if len(frontier) == 0:
            break
        nbrs = np.concatenate(
            [di[starts[f] : ends[f]] for f in frontier]
        ) if len(frontier) else np.empty(0, np.int64)
        nbrs = np.unique(nbrs)
        frontier = nbrs[dist[nbrs] == -1]
        dist[frontier] = hop
    found = dist >= 0
    return pa.table(
        {
            "node": pa.array(nodes[found], pa.int64()),
            "dist": pa.array(dist[found], pa.int64()),
        }
    )


def khop_distances(
    edges_ds,
    seeds: list[int],
    k: int,
    num_partitions: int | None = None,
    driver_threshold: int = 100_000,
):
    """Minimum hop count from any seed over a DIRECTED (src, dst) int64
    edge Dataset → (node, dist) for every node within k hops (seeds at
    dist 0).  Deterministic; parallel edges are harmless (frontiers
    dedup per hop).  Matches DuckDB's recursive-CTE shortest-hop
    ground truth exactly (khop_parity gate)."""
    import numpy as np
    import ray
    import ray.data as rd

    from ..context import shuffle_partitions

    nparts = num_partitions or shuffle_partitions()
    edges = edges_ds.materialize()
    if edges.count() <= driver_threshold:
        blocks = [t for t in ray.get(edges.to_arrow_refs()) if t.num_rows]
        table = (
            pa.concat_tables(blocks)
            if blocks
            else pa.schema([("src", pa.int64()), ("dst", pa.int64())]).empty_table()
        )
        return rd.from_arrow(_khop_driver(table, seeds, k))

    seed_arr = np.unique(np.asarray(seeds, dtype=np.int64))
    visited = rd.from_arrow(
        pa.table(
            {
                "node": pa.array(seed_arr, pa.int64()),
                "dist": pa.array(np.zeros(len(seed_arr), np.int64)),
            }
        )
    ).materialize()
    frontier = visited.select_columns(["node"]).materialize()

    def dedup_nodes(t: pa.Table) -> pa.Table:
        import polars as pl

        return (
            pl.from_arrow(t)
            .unique(subset=["node"])
            .select(["node"])
            .to_arrow()
            .cast(pa.schema([("node", pa.int64())]))
        )

    for hop in range(1, k + 1):
        if frontier.count() == 0:
            break
        hits = hash_join(
            edges,
            frontier.rename_columns({"node": "fnode"}),
            left_on="src",
            right_on="fnode",
            how="left_semi",
            num_partitions=nparts,
            left_schema=pa.schema([("src", pa.int64()), ("dst", pa.int64())]),
            right_schema=pa.schema([("fnode", pa.int64())]),
        )

        def to_nodes(t: pa.Table) -> pa.Table:
            return pa.table({"node": t.column("dst").cast(pa.int64())})

        nxt = hash_reduce(
            hits.map_batches(to_nodes, batch_format="pyarrow"), ["node"], dedup_nodes, nparts
        )
        frontier = hash_join(
            nxt,
            visited,
            left_on="node",
            right_on="node",
            how="left_anti",
            num_partitions=nparts,
            left_schema=pa.schema([("node", pa.int64())]),
            right_schema=DIST_SCHEMA,
        ).materialize()
        stamped = frontier.map_batches(
            lambda t, hop=hop: t.append_column(
                "dist", pa.array(np.full(t.num_rows, hop, np.int64))
            ),
            batch_format="pyarrow",
        )
        visited = visited.union(stamped).materialize()

    return visited


def khop_duckdb(
    con, edges_sql: str, seeds_sql: str, k: int
) -> list[tuple[int, int]]:
    """Ground truth: bounded recursive CTE with UNION-distinct frontier
    rows (at most n*(k+1) states), MIN(dist) per node."""
    rows = con.execute(
        f"""
        WITH RECURSIVE e AS ({edges_sql}),
        walk(node, dist) AS (
          SELECT node, 0 FROM ({seeds_sql})
          UNION
          SELECT e.dst, w.dist + 1 FROM walk w JOIN e ON e.src = w.node
          WHERE w.dist < {int(k)}
        )
        SELECT node, MIN(dist) FROM walk GROUP BY 1 ORDER BY 1
        """
    ).fetchall()
    return [(int(a), int(b)) for a, b in rows]


def q_graph_khop(sf_dir: str):
    """3-hop neighborhood of the deterministic seed set over the layered
    directed graph (same derivation as the PageRank gate).  Exact
    integer parity vs the recursive-CTE ground truth is the khop_parity
    row of approx_metrics (this data surface sits past the driver's
    50-query budget)."""
    import pandas as pd

    rows = khop_distances(
        layered_edges(sf_dir), seeds=list(range(0, 400, 50)), k=3
    ).take_all()
    return (
        pd.DataFrame(rows)
        .sort_values(["dist", "node"])
        .reset_index(drop=True)
    )


def layered_edges(sf_dir: str):
    """The PageRank gate's layered directed graph (orderkey/partkey/
    suppkey folded into three overlapping id ranges), reused for the
    k-hop surface so distances span several hops."""
    import numpy as np
    import ray.data as rd

    def derive(t: pa.Table) -> pa.Table:
        ok = t.column("l_orderkey").to_numpy(zero_copy_only=False)
        pk = t.column("l_partkey").to_numpy(zero_copy_only=False)
        sk = t.column("l_suppkey").to_numpy(zero_copy_only=False)
        src = np.concatenate([ok % 211, pk % 193]).astype(np.int64)
        dst = np.concatenate([pk % 193, sk % 97 + 300]).astype(np.int64)
        return pa.table({"src": pa.array(src), "dst": pa.array(dst)})

    return rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_partkey", "l_suppkey"],
    ).map_batches(derive, batch_format="pyarrow")


def layered_edges_sql(sf_dir: str) -> str:
    li = f"{sf_dir}/lineitem.parquet"
    return f"""
        SELECT l_orderkey % 211 AS src, l_partkey % 193 AS dst
        FROM read_parquet('{li}')
        UNION ALL
        SELECT l_partkey % 193 AS src, l_suppkey % 97 + 300 AS dst
        FROM read_parquet('{li}')
    """


def cooccur_edges(sf_dir: str):
    """Deterministic bounded co-occurrence-style graph derived from
    lineitem (shared by the triangle data surface, its parity gate and
    the DuckDB ground truth): part/supplier/order keys folded into one
    127-node id space so the graph is clumpy enough to carry triangles."""
    import numpy as np
    import ray.data as rd

    def derive(t: pa.Table) -> pa.Table:
        ok = t.column("l_orderkey").to_numpy(zero_copy_only=False)
        keep = ok % 5 == 0
        ok = ok[keep]
        pk = t.column("l_partkey").to_numpy(zero_copy_only=False)[keep]
        sk = t.column("l_suppkey").to_numpy(zero_copy_only=False)[keep]
        src = np.concatenate([pk % 127, pk % 127]).astype(np.int64)
        dst = np.concatenate([sk % 127, ok % 127]).astype(np.int64)
        return pa.table({"src": pa.array(src), "dst": pa.array(dst)})

    return rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_partkey", "l_suppkey"],
    ).map_batches(derive, batch_format="pyarrow")


def cooccur_edges_sql(sf_dir: str) -> str:
    li = f"{sf_dir}/lineitem.parquet"
    return f"""
        SELECT l_partkey % 127 AS src, l_suppkey % 127 AS dst
        FROM read_parquet('{li}') WHERE l_orderkey % 5 = 0
        UNION ALL
        SELECT l_partkey % 127 AS src, l_orderkey % 127 AS dst
        FROM read_parquet('{li}') WHERE l_orderkey % 5 = 0
    """


def q_graph_triangles(sf_dir: str):
    """Per-node triangle counts + local clustering coefficient over the
    derived co-occurrence graph.  Exact cross-engine parity with the
    DuckDB closed-wedge self-join is the triangles_parity row of
    approx_metrics (this data surface sits past the driver's 50-query
    budget)."""
    import pandas as pd

    tri = triangle_counts(cooccur_edges(sf_dir)).take_all()
    df = pd.DataFrame(tri).sort_values("node").reset_index(drop=True)
    denom = (df["degree"] * (df["degree"] - 1) / 2).clip(lower=1)
    df["clustering"] = (df["triangles"] / denom).round(9)
    return df


def pagerank_duckdb(
    con,
    edges_sql: str,
    damping: float = 0.85,
    n_iter: int = 10,
):
    """Ground-truth PageRank in DuckDB: the identical fixed-iteration
    recurrence replayed over ``edges_sql`` (a query yielding src, dst).
    Returns sorted (node, rank) tuples."""
    con.execute(f"CREATE OR REPLACE TEMP TABLE _e AS {edges_sql}")
    con.execute(
        """
        CREATE OR REPLACE TEMP TABLE _nodes AS
        SELECT DISTINCT node FROM (
          SELECT src AS node FROM _e UNION SELECT dst FROM _e)
        """
    )
    con.execute(
        """
        CREATE OR REPLACE TEMP TABLE _deg AS
        SELECT n.node, COALESCE(d.deg, 0) AS deg FROM _nodes n
        LEFT JOIN (SELECT src AS node, COUNT(*) AS deg FROM _e GROUP BY 1) d
        USING (node)
        """
    )
    n = con.execute("SELECT COUNT(*) FROM _nodes").fetchone()[0]
    # float literals parse as DECIMAL in DuckDB; bind every constant as a
    # parameter so the recurrence runs in IEEE double like the engine
    con.execute(
        "CREATE OR REPLACE TEMP TABLE _rank AS "
        "SELECT node, deg, CAST(? AS DOUBLE) AS rank FROM _deg",
        [1.0 / n],
    )
    for _ in range(n_iter):
        dangling = con.execute(
            "SELECT COALESCE(SUM(rank), 0) FROM _rank WHERE deg = 0"
        ).fetchone()[0]
        teleport = (1.0 - damping) / n + damping * dangling / n
        con.execute(
            """
            CREATE OR REPLACE TEMP TABLE _next AS
            SELECT d.node, d.deg,
                   CAST(? AS DOUBLE) * COALESCE(c.s, 0) + CAST(? AS DOUBLE) AS rank
            FROM _deg d LEFT JOIN (
              SELECT e.dst AS node, SUM(r.rank / r.deg) AS s
              FROM _e e JOIN _rank r ON e.src = r.node AND r.deg > 0
              GROUP BY 1) c
            USING (node)
            """,
            [damping, teleport],
        )
        con.execute("CREATE OR REPLACE TEMP TABLE _rank AS SELECT * FROM _next")
    return sorted(con.execute("SELECT node, rank FROM _rank").fetchall())


# ---------------------------------------------------------------------------
# HITS hubs & authorities (Kleinberg 1999)
# ---------------------------------------------------------------------------
#
# The mutual-reinforcement companion to PageRank: a node is a good HUB
# if it points at good authorities, a good AUTHORITY if good hubs point
# at it — the classic signal for link-graph curation (seed-page
# selection, anchor-corpus weighting).  Fixed n_iter power iterations
# with L2 normalization after every half-step (the textbook recurrence),
# so the result is deterministic and cross-engine replayable.
#
# Same two-path shape as pagerank(): edge sets at or below
# driver_threshold run the numpy recurrence on the driver; above it,
# the dataset-native iteration — each half-step is ONE hash join
# (edges x current scores) + ONE bounded groupby-sum + a scalar L2
# norm, so per-iteration driver traffic is two floats regardless of
# graph size.  Parallel edges count once per occurrence, matching the
# DuckDB replay (hits_duckdb).

HITS_SCHEMA = pa.schema(
    [("node", pa.int64()), ("hub", pa.float64()), ("authority", pa.float64())]
)


def _hits_driver(edges: pa.Table, n_iter: int) -> pa.Table:
    """Weighted recurrence over collapsed (src, dst, w) edges."""
    import numpy as np

    src = edges.column("src").to_numpy(zero_copy_only=False).astype(np.int64)
    dst = edges.column("dst").to_numpy(zero_copy_only=False).astype(np.int64)
    w = edges.column("w").to_numpy(zero_copy_only=False).astype(np.float64)
    nodes = np.unique(np.concatenate([src, dst]))
    si = np.searchsorted(nodes, src)
    di = np.searchsorted(nodes, dst)
    n = len(nodes)
    h = np.ones(n, dtype=np.float64)
    a = np.zeros(n, dtype=np.float64)
    for _ in range(n_iter):
        a[:] = 0.0
        np.add.at(a, di, w * h[si])
        na = float(np.sqrt((a * a).sum())) or 1.0
        a /= na
        h[:] = 0.0
        np.add.at(h, si, w * a[di])
        nh = float(np.sqrt((h * h).sum())) or 1.0
        h /= nh
    return pa.table(
        {
            "node": pa.array(nodes, pa.int64()),
            "hub": pa.array(h, pa.float64()),
            "authority": pa.array(a, pa.float64()),
        }
    )


def hits(
    edges_ds,
    n_iter: int = 5,
    num_partitions: int = 16,
    driver_threshold: int = 100_000,
):
    """HITS over an (src, dst) int64 edge Dataset → (node, hub,
    authority).  Parallel edges count once per occurrence, implemented
    by collapsing the multigraph to weighted (src, dst, w) edges FIRST
    (HITS contributions are linear in multiplicity) — on co-occurrence
    graphs this shrinks the iterated table from edge-occurrence volume
    to the distinct-pair count, usually orders of magnitude.  The two
    paths agree to float64 summation round-off (pinned in
    test_graph.py); DuckDB replaying the per-occurrence recurrence
    matches to 1e-9 (hits_parity gate)."""
    import numpy as np
    import pyarrow.compute as _pc
    import ray.data as rd

    edges = (
        edges_ds.groupby(["src", "dst"])
        .count()
        .map_batches(
            lambda t: pa.table(
                {
                    "src": t.column("src"),
                    "dst": t.column("dst"),
                    "w": _pc.cast(t.column("count()"), pa.float64()),
                }
            ),
            batch_format="pyarrow",
        )
        .materialize()
    )
    n_edges = edges.count()
    if n_edges == 0:
        return rd.from_arrow(HITS_SCHEMA.empty_table())
    if n_edges <= driver_threshold:
        import ray

        blocks = [t for t in ray.get(edges.to_arrow_refs()) if t.num_rows]
        table = pa.concat_tables(blocks).combine_chunks()
        return rd.from_arrow(_hits_driver(table, n_iter))

    base = (
        edges.select_columns(["src"])
        .rename_columns({"src": "node"})
        .union(edges.select_columns(["dst"]).rename_columns({"dst": "node"}))
        .groupby("node")
        .count()
        .select_columns(["node"])
        .materialize()
    )
    node_schema = pa.schema([("node", pa.int64())])
    score_schema = pa.schema([("node", pa.int64()), ("score", pa.float64())])

    def const_scores(val: float):
        return base.map_batches(
            lambda t, v=val: pa.table(
                {
                    "node": t.column("node"),
                    "score": pa.array([v] * t.num_rows, pa.float64()),
                }
            ).cast(score_schema),
            batch_format="pyarrow",
        ).materialize()

    def half_step(scores, from_col: str, to_col: str):
        """new(to) = L2-normalized sum over edges of current(from).
        Scores stay SPARSE during iterations (nodes with raw 0 carry no
        row — zeros contribute nothing to either the next join or the
        norm); the final output zero-fills against the node base."""
        send = scores.rename_columns({"node": "edge_key"})
        contribs = hash_join(
            edges,
            send,
            left_on=from_col,
            right_on="edge_key",
            num_partitions=num_partitions,
            left_schema=pa.schema(
                [("src", pa.int64()), ("dst", pa.int64()), ("w", pa.float64())]
            ),
            right_schema=pa.schema(
                [("edge_key", pa.int64()), ("score", pa.float64())]
            ),
        ).map_batches(
            lambda t: pa.table(
                {
                    to_col: t.column(to_col),
                    "score": pc.multiply(t.column("w"), t.column("score")),
                }
            ),
            batch_format="pyarrow",
        )
        sums = (
            contribs.groupby(to_col)
            .sum("score")
            .rename_columns({to_col: "node", "sum(score)": "raw"})
            .materialize()
        )
        sq = sums.map_batches(
            lambda t: pa.table(
                {"s": pc.multiply(t.column("raw"), t.column("raw"))}
            ),
            batch_format="pyarrow",
        ).sum("s", ignore_nulls=True)
        norm = float(np.sqrt(sq or 0.0)) or 1.0
        return sums.map_batches(
            lambda t, nv=norm: pa.table(
                {
                    "node": t.column("node"),
                    "score": pc.divide(t.column("raw"), pa.scalar(nv, pa.float64())),
                }
            ).cast(score_schema),
            batch_format="pyarrow",
        ).materialize()

    hub = const_scores(1.0)
    auth = const_scores(0.0)
    for _ in range(n_iter):
        auth = half_step(hub, "src", "dst")
        hub = half_step(auth, "dst", "src")

    def fill(scores, col: str):
        return hash_join(
            base,
            scores.rename_columns({"node": "s_node"}),
            left_on="node",
            right_on="s_node",
            how="left_outer",
            num_partitions=num_partitions,
            left_schema=node_schema,
            right_schema=pa.schema(
                [("s_node", pa.int64()), ("score", pa.float64())]
            ),
        ).map_batches(
            lambda t, c=col: pa.table(
                {
                    "node": t.column("node"),
                    c: pc.fill_null(t.column("score"), 0.0),
                }
            ),
            batch_format="pyarrow",
        )

    merged = hash_join(
        fill(hub, "hub"),
        fill(auth, "authority").rename_columns({"node": "a_node"}),
        left_on="node",
        right_on="a_node",
        num_partitions=num_partitions,
        left_schema=pa.schema([("node", pa.int64()), ("hub", pa.float64())]),
        right_schema=pa.schema(
            [("a_node", pa.int64()), ("authority", pa.float64())]
        ),
    )
    return merged.map_batches(
        lambda t: t.select(["node", "hub", "authority"]).cast(HITS_SCHEMA),
        batch_format="pyarrow",
    )


def hits_duckdb(con, edges_sql: str, n_iter: int = 5):
    """Ground-truth HITS in DuckDB: the identical fixed-iteration L2
    recurrence.  Returns sorted (node, hub, authority) tuples."""
    con.execute(f"CREATE OR REPLACE TEMP TABLE _he AS {edges_sql}")
    con.execute(
        """
        CREATE OR REPLACE TEMP TABLE _hn AS
        SELECT DISTINCT node FROM (
          SELECT src AS node FROM _he UNION SELECT dst FROM _he)
        """
    )
    con.execute(
        "CREATE OR REPLACE TEMP TABLE _h AS "
        "SELECT node, CAST(1.0 AS DOUBLE) AS score FROM _hn"
    )
    for _ in range(n_iter):
        for frm, to, out in (("src", "dst", "_a"), ("dst", "src", "_h")):
            cur = "_h" if frm == "src" else "_a"
            con.execute(
                f"""
                CREATE OR REPLACE TEMP TABLE _raw AS
                SELECT n.node, COALESCE(c.s, 0) AS raw FROM _hn n
                LEFT JOIN (
                  SELECT e.{to} AS node, SUM(r.score) AS s
                  FROM _he e JOIN {cur} r ON e.{frm} = r.node
                  GROUP BY 1) c
                USING (node)
                """
            )
            norm = con.execute(
                "SELECT sqrt(SUM(raw * raw)) FROM _raw"
            ).fetchone()[0]
            con.execute(
                f"CREATE OR REPLACE TEMP TABLE {out} AS "
                f"SELECT node, raw / CAST(? AS DOUBLE) AS score FROM _raw",
                [float(norm) or 1.0],
            )
    return sorted(
        con.execute(
            """
            SELECT h.node, h.score AS hub, a.score AS authority
            FROM _h h JOIN _a a USING (node)
            """
        ).fetchall()
    )


def q_graph_hits(sf_dir: str):
    """Hub/authority scores over the layered directed graph (same
    derivation as the PageRank gate).  Cross-engine parity with the
    DuckDB L2 recurrence is the hits_parity row of approx_metrics
    (this data surface sits past the driver's 50-query budget)."""
    import pandas as pd

    rows = hits(layered_edges(sf_dir)).take_all()
    df = pd.DataFrame(rows).sort_values("node").reset_index(drop=True)
    df["hub"] = df["hub"].round(9)
    df["authority"] = df["authority"].round(9)
    return df
