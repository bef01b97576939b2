"""Distributed knowledge-graph embedding training (TransE).

The KG pipeline materializes (subj, pred, obj) edge tables
(stages/triples.py); training an embedding over that graph is the
canonical downstream ML consumer — link prediction for curation
triage, entity-similarity priors for disambiguation, and KG completion
all start from a TransE-family model (Bordes et al., NeurIPS 2013:
score(h, r, t) = -||E[h] + R[r] - E[t]||^2, margin ranking loss against
corrupted heads/tails).

Ray-Data-first synchronous training, deterministic by construction:

- vocab: distributed distinct over subj/obj (coarse hash exchange +
  per-partition unique), ids assigned by sorted order on the driver
  (the vocab is ontology-sized — bounded — while the TRIPLE set is
  corpus-sized and never leaves the cluster);
- init: embeddings are a pure hash of (row, dim) — no RNG state, so
  every worker and the single-process reference derive identical
  parameters;
- each epoch: entity/relation matrices broadcast once via ``ray.put``
  (zero-copy reads from the object store), one ``map_batches`` pass
  over the triple Dataset computes margin-loss gradients fully
  vectorized in numpy and emits SPARSE per-id gradient partials
  pre-summed within the batch (combiner before the exchange — the
  partial a batch ships is bounded by its distinct touched ids, not
  its triple count);
- negative sampling corrupts head or tail with an entity chosen by a
  splitmix-style hash of (h, r, t, epoch) — a pure function of the
  TRIPLE, not of its position, so any partitioning of the Dataset
  yields the same negatives;
- the driver owns the parameter state (it already holds the
  ontology-bounded embedding matrices) and applies the summed update +
  per-epoch entity renormalization, exactly like a single parameter
  server; at real cluster scale the matrices shard by entity-id range
  across parameter actors and the partial tables route by the same
  key — the per-batch math is unchanged.

Equivalence + quality are driver-recorded every round (transe_* rows of
approx_metrics): the distributed path matches a single-process
reference running the identical schedule to float64 round-off, the
training loss collapses well below its initial value (it is not
monotone step-to-step — negatives resample each epoch), and filtered
link prediction on the derived relational KG reaches hits@1 far above
the 1/n_entities random baseline.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..exchange import hash_reduce

_SPLITMIX = np.uint64(0x9E3779B97F4A7C15)


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer — vectorized uint64 -> uint64."""
    z = x + _SPLITMIX
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def hash_init(n: int, dim: int, salt: int) -> np.ndarray:
    """Deterministic Xavier-uniform init: a pure hash of (salt, row, dim)
    mapped to uniform(-6/sqrt(dim), 6/sqrt(dim))."""
    idx = np.arange(n * dim, dtype=np.uint64) + np.uint64(salt) * np.uint64(
        0x100000001B3
    )
    u = _mix64(idx).astype(np.float64) / float(2**64)
    bound = 6.0 / np.sqrt(dim)
    return ((u * 2.0 - 1.0) * bound).reshape(n, dim)


def build_vocab(triples_ds, num_partitions: int = 8):
    """(entities sorted list, relations sorted list) from a
    (subj, pred, obj) string Dataset — distributed distinct via the
    hash(name) exchange; only the bounded distinct sets reach the driver."""
    import polars as pl

    def parts(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t.select(["subj", "pred", "obj"]))
        ent = (
            df.select(pl.col("subj").alias("name"))
            .vstack(df.select(pl.col("obj").alias("name")))
            .with_columns(kind=pl.lit(0, dtype=pl.Int8))
        )
        rel = df.select(pl.col("pred").alias("name")).with_columns(
            kind=pl.lit(1, dtype=pl.Int8)
        )
        return ent.vstack(rel).unique().to_arrow().cast(
            pa.schema([("name", pa.large_string()), ("kind", pa.int8())])
        )

    def uniq(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t)
            .unique(subset=["name", "kind"])
            .select(["name", "kind"])
            .to_arrow()
            .cast(pa.schema([("name", pa.large_string()), ("kind", pa.int8())]))
        )

    rows = hash_reduce(
        triples_ds.map_batches(parts, batch_format="pyarrow"), ["name"], uniq, num_partitions
    ).take_all()
    entities = sorted(r["name"] for r in rows if r["kind"] == 0)
    relations = sorted(r["name"] for r in rows if r["kind"] == 1)
    return entities, relations


def encode_triples(triples_ds, entities: list[str], relations: list[str]):
    """Map the string triple Dataset to int id columns (h, r, t) via a
    broadcast vocab lookup inside map_batches."""
    import ray

    e_ref = ray.put({n: i for i, n in enumerate(entities)})
    r_ref = ray.put({n: i for i, n in enumerate(relations)})

    def enc(t: pa.Table) -> pa.Table:
        emap, rmap = ray.get(e_ref), ray.get(r_ref)
        h = [emap[x] for x in t.column("subj").to_pylist()]
        r = [rmap[x] for x in t.column("pred").to_pylist()]
        tt = [emap[x] for x in t.column("obj").to_pylist()]
        return pa.table(
            {
                "h": pa.array(h, pa.int64()),
                "r": pa.array(r, pa.int64()),
                "t": pa.array(tt, pa.int64()),
            }
        )

    return triples_ds.map_batches(enc, batch_format="pyarrow")


def _epoch_negatives(h, r, t, epoch: int, n_ent: int):
    """Deterministic corruption: a hash of (h, r, t, epoch) picks the
    corrupting entity and whether head or tail is replaced — a pure
    function of the triple, invariant to partitioning."""
    key = (
        h.astype(np.uint64) * np.uint64(0x100000001B3)
        ^ r.astype(np.uint64) * np.uint64(0xC2B2AE3D27D4EB4F)
        ^ t.astype(np.uint64) * np.uint64(0xFF51AFD7ED558CCD)
        ^ np.uint64((epoch * 0x2545F4914F6CDD1D) % (1 << 64))
    )
    m = _mix64(key)
    corrupt_ent = (m % np.uint64(n_ent)).astype(np.int64)
    corrupt_head = (_mix64(m) & np.uint64(1)).astype(bool)
    return corrupt_ent, corrupt_head


def _batch_grads(
    h: np.ndarray,
    r: np.ndarray,
    t: np.ndarray,
    E: np.ndarray,
    R: np.ndarray,
    epoch: int,
    margin: float,
):
    """Vectorized margin-loss gradients for one triple batch.

    Returns (ent_ids, ent_grads, rel_ids, rel_grads, loss_sum, n_active)
    with the per-batch combiner already applied (ids unique)."""
    n_ent, dim = E.shape
    corrupt_ent, corrupt_head = _epoch_negatives(h, r, t, epoch, n_ent)
    hn = np.where(corrupt_head, corrupt_ent, h)
    tn = np.where(corrupt_head, t, corrupt_ent)

    d_pos = E[h] + R[r] - E[t]
    d_neg = E[hn] + R[r] - E[tn]
    pos = np.einsum("ij,ij->i", d_pos, d_pos)
    neg = np.einsum("ij,ij->i", d_neg, d_neg)
    viol = margin + pos - neg
    active = viol > 0
    loss_sum = float(viol[active].sum())
    if not active.any():
        return (
            np.empty(0, np.int64),
            np.empty((0, dim)),
            np.empty(0, np.int64),
            np.empty((0, dim)),
            loss_sum,
            0,
        )
    ha, ra, ta = h[active], r[active], t[active]
    hna, tna = hn[active], tn[active]
    gp = 2.0 * d_pos[active]  # d(pos)/d(h+r-t)
    gn = 2.0 * d_neg[active]
    # entity grads: +gp at h, -gp at t, -gn at hn, +gn at tn
    ids = np.concatenate([ha, ta, hna, tna])
    gr = np.concatenate([gp, -gp, -gn, gn])
    uids, inv = np.unique(ids, return_inverse=True)
    eg = np.zeros((len(uids), dim))
    np.add.at(eg, inv, gr)
    # relation grads: +gp - gn at r
    urids, rinv = np.unique(ra, return_inverse=True)
    rg = np.zeros((len(urids), dim))
    np.add.at(rg, rinv, gp - gn)
    return uids, eg, urids, rg, loss_sum, int(active.sum())


def _apply_epoch(E, R, parts, lr: float, n_triples: int):
    """Parameter-server step: merge sparse partials, apply ``lr`` as the
    PER-TRIPLE step size (each triple's gradient moves its embeddings by
    lr — scale-free in corpus size, unlike lr/n_triples whose effective
    step collapses as the triple table grows), renormalize entity rows
    to the unit ball.  ``n_triples`` only normalizes the reported
    loss."""
    ent_acc: dict[int, np.ndarray] = {}
    rel_acc: dict[int, np.ndarray] = {}
    loss = 0.0
    for uids, eg, urids, rg, ls, _ in parts:
        for i, u in enumerate(uids):
            a = ent_acc.get(int(u))
            ent_acc[int(u)] = eg[i].copy() if a is None else a + eg[i]
        for i, u in enumerate(urids):
            a = rel_acc.get(int(u))
            rel_acc[int(u)] = rg[i].copy() if a is None else a + rg[i]
        loss += ls
    scale = lr
    for u in sorted(ent_acc):
        E[u] -= scale * ent_acc[u]
    for u in sorted(rel_acc):
        R[u] -= scale * rel_acc[u]
    norms = np.linalg.norm(E, axis=1, keepdims=True)
    np.divide(E, norms, out=E, where=norms > 1.0)
    return loss / max(1, n_triples)


GRAD_SCHEMA = pa.schema(
    [
        ("kind", pa.int8()),
        ("gid", pa.int64()),
        ("grad", pa.list_(pa.float64())),
        ("loss", pa.float64()),
        ("n_active", pa.int64()),
    ]
)


def transe_train(
    triples_ds,
    entities: list[str],
    relations: list[str],
    dim: int = 32,
    epochs: int = 200,
    lr: float = 0.01,
    margin: float = 1.0,
    seed: int = 13,
):
    """Train TransE over an encoded (h, r, t) int64 triple Dataset.

    Returns (E, R, losses).  One broadcast + one map_batches pass per
    epoch; every partial the pass ships is pre-summed per batch."""
    import ray

    enc = triples_ds.materialize()
    n_triples = enc.count()
    E = hash_init(len(entities), dim, salt=seed)
    norms = np.linalg.norm(E, axis=1, keepdims=True)
    np.divide(E, norms, out=E, where=norms > 1.0)
    R = hash_init(len(relations), dim, salt=seed + 1)
    losses: list[float] = []

    for epoch in range(epochs):
        params = ray.put((E, R))

        def epoch_pass(t: pa.Table, epoch=epoch, params=params) -> pa.Table:
            Eb, Rb = ray.get(params)
            h = t.column("h").to_numpy(zero_copy_only=False)
            r = t.column("r").to_numpy(zero_copy_only=False)
            tt = t.column("t").to_numpy(zero_copy_only=False)
            uids, eg, urids, rg, ls, na = _batch_grads(
                h, r, tt, Eb, Rb, epoch, margin
            )
            kind = np.concatenate(
                [np.zeros(len(uids), np.int8), np.ones(len(urids), np.int8)]
            )
            gid = np.concatenate([uids, urids])
            grads = [row.tolist() for row in eg] + [row.tolist() for row in rg]
            loss_col = np.zeros(len(gid))
            n_col = np.zeros(len(gid), np.int64)
            if len(gid):
                loss_col[0] = ls
                n_col[0] = na
            elif ls:  # pragma: no cover - all-inactive batch still reports loss
                return pa.table(
                    {
                        "kind": pa.array([np.int8(2)]),
                        "gid": pa.array([0], pa.int64()),
                        "grad": pa.array([[0.0]], pa.list_(pa.float64())),
                        "loss": pa.array([ls]),
                        "n_active": pa.array([0], pa.int64()),
                    }
                ).cast(GRAD_SCHEMA)
            return pa.table(
                {
                    "kind": pa.array(kind),
                    "gid": pa.array(gid, pa.int64()),
                    "grad": pa.array(grads, pa.list_(pa.float64())),
                    "loss": pa.array(loss_col),
                    "n_active": pa.array(n_col, pa.int64()),
                }
            ).cast(GRAD_SCHEMA)

        parts_rows = enc.map_batches(epoch_pass, batch_format="pyarrow").take_all()
        ent_ids = np.array(
            [r["gid"] for r in parts_rows if r["kind"] == 0], np.int64
        )
        ent_g = (
            np.array([r["grad"] for r in parts_rows if r["kind"] == 0])
            if len(ent_ids)
            else np.empty((0, dim))
        )
        rel_ids = np.array(
            [r["gid"] for r in parts_rows if r["kind"] == 1], np.int64
        )
        rel_g = (
            np.array([r["grad"] for r in parts_rows if r["kind"] == 1])
            if len(rel_ids)
            else np.empty((0, dim))
        )
        loss_sum = float(sum(r["loss"] for r in parts_rows))
        losses.append(
            _apply_epoch(
                E,
                R,
                [(ent_ids, ent_g, rel_ids, rel_g, loss_sum, 0)],
                lr,
                n_triples,
            )
        )
    return E, R, losses


def transe_train_local(
    triples: pa.Table,
    entities: list[str],
    relations: list[str],
    dim: int = 32,
    epochs: int = 200,
    lr: float = 0.01,
    margin: float = 1.0,
    seed: int = 13,
):
    """Single-process reference: the identical schedule with the whole
    triple table as one batch (the gradient is a sum, so this is the
    mathematical definition the distributed path must reproduce)."""
    h = triples.column("h").to_numpy(zero_copy_only=False)
    r = triples.column("r").to_numpy(zero_copy_only=False)
    t = triples.column("t").to_numpy(zero_copy_only=False)
    E = hash_init(len(entities), dim, salt=seed)
    norms = np.linalg.norm(E, axis=1, keepdims=True)
    np.divide(E, norms, out=E, where=norms > 1.0)
    R = hash_init(len(relations), dim, salt=seed + 1)
    losses: list[float] = []
    for epoch in range(epochs):
        part = _batch_grads(h, r, t, E, R, epoch, margin)
        losses.append(_apply_epoch(E, R, [part], lr, len(h)))
    return E, R, losses


def link_prediction_eval(
    triples_ds, E: np.ndarray, R: np.ndarray, ks: tuple[int, ...] = (1, 10)
):
    """Distributed filtered tail-prediction: every eval batch ranks the
    true tail of each triple against ALL entities under the trained
    score (brute-force ranking against the broadcast embedding matrix,
    the ann_topk pattern), filtering other known-true tails of the same
    (h, r).  Returns (hits@k dict, mean reciprocal rank)."""
    import ray

    enc = triples_ds.materialize()
    known = {}
    for row in enc.take_all():
        known.setdefault((row["h"], row["r"]), set()).add(row["t"])
    known_ref = ray.put(known)
    params = ray.put((E, R))

    def rank_batch(tb: pa.Table) -> pa.Table:
        Eb, Rb = ray.get(params)
        kn = ray.get(known_ref)
        h = tb.column("h").to_numpy(zero_copy_only=False)
        r = tb.column("r").to_numpy(zero_copy_only=False)
        t = tb.column("t").to_numpy(zero_copy_only=False)
        q = Eb[h] + Rb[r]  # (b, d)
        # squared distance to every entity, row-block at a time
        d2 = (
            (q * q).sum(1, keepdims=True)
            - 2.0 * q @ Eb.T
            + (Eb * Eb).sum(1)[None, :]
        )
        ranks = np.empty(len(h), np.int64)
        for i in range(len(h)):
            true_d = d2[i, t[i]]
            better = d2[i] < true_d
            for other in kn.get((h[i], r[i]), ()):  # filtered setting
                if other != t[i]:
                    better[other] = False
            ranks[i] = int(better.sum()) + 1
        return pa.table({"rank": pa.array(ranks, pa.int64())})

    ranks = np.array(
        [r["rank"] for r in enc.map_batches(rank_batch, batch_format="pyarrow").take_all()]
    )
    hits = {k: float((ranks <= k).mean()) for k in ks}
    mrr = float((1.0 / ranks).mean())
    return hits, mrr


# ---------------------------------------------------------------------------
# Derived relational KG (shared by the data surface and the gate)
# ---------------------------------------------------------------------------


def relational_triples(sf_dir: str):
    """Deterministic KG from the relational tables: customer --in_nation-->
    nation, supplier --in_nation--> nation, nation --in_region--> region.
    Same shape as the pipeline's (subj, pred, obj) edge table."""
    import ray.data as rd

    def cust(t: pa.Table) -> pa.Table:
        ck = t.column("c_custkey").to_pylist()
        nk = t.column("c_nationkey").to_pylist()
        return pa.table(
            {
                "subj": pa.array([f"C{k}" for k in ck], pa.large_string()),
                "pred": pa.array(["in_nation"] * len(ck), pa.large_string()),
                "obj": pa.array([f"N{k}" for k in nk], pa.large_string()),
            }
        )

    def supp(t: pa.Table) -> pa.Table:
        sk = t.column("s_suppkey").to_pylist()
        nk = t.column("s_nationkey").to_pylist()
        return pa.table(
            {
                "subj": pa.array([f"S{k}" for k in sk], pa.large_string()),
                "pred": pa.array(["in_nation"] * len(sk), pa.large_string()),
                "obj": pa.array([f"N{k}" for k in nk], pa.large_string()),
            }
        )

    def nat(t: pa.Table) -> pa.Table:
        nk = t.column("n_nationkey").to_pylist()
        rk = t.column("n_regionkey").to_pylist()
        return pa.table(
            {
                "subj": pa.array([f"N{k}" for k in nk], pa.large_string()),
                "pred": pa.array(["in_region"] * len(nk), pa.large_string()),
                "obj": pa.array([f"R{k}" for k in rk], pa.large_string()),
            }
        )

    c = rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    ).map_batches(cust, batch_format="pyarrow")
    s = rd.read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    ).map_batches(supp, batch_format="pyarrow")
    n = rd.read_parquet(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_regionkey"]
    ).map_batches(nat, batch_format="pyarrow")
    return c.union(s).union(n)


def q_kg_embeddings(sf_dir: str):
    """Data surface: trained entity embeddings (entity, 16 floats) over
    the derived relational KG plus the per-epoch loss curve.  The
    distributed-vs-reference equivalence and link-prediction quality
    gates are the transe_* rows of approx_metrics (this surface sits
    past the driver's 50-query budget)."""
    import pandas as pd

    triples = relational_triples(sf_dir)
    entities, relations = build_vocab(triples)
    enc = encode_triples(triples, entities, relations)
    # 50 distributed epochs: the surface shows trained vectors at query
    # cost; the full-schedule quality numbers are the gate's job
    E, _, losses = transe_train(enc, entities, relations, epochs=50)
    df = pd.DataFrame(
        {
            "entity": entities,
            "vec": [np.round(row, 9).tolist() for row in E],
        }
    ).sort_values("entity").reset_index(drop=True)
    df["final_loss"] = round(losses[-1], 9)
    return df
