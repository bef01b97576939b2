"""Mergeable quantile sketch over numeric columns.

The numeric-column member of the sketch family (MinHash/SimHash cover
set similarity in extras/dedup.py): a KLL-flavoured weighted-centroid
compaction — each batch compresses its sorted values to at most ``k``
(value, weight) centroids at evenly spaced cumulative ranks; sketches
merge by concatenation + recompression; quantiles read off the merged
cumulative weights.  Rank error per compaction is bounded by
``total_weight / k``, so with the two-level reduction below the end-to-
end error stays well inside the 1%-of-value gate pinned in pytest.

Scale shape (combiner tree, no driver-side data):

1. ``map_batches`` → per-batch sketch rows (≤ k rows per block),
2. coarse ``groupby(part)`` → per-partition merge+recompress (≤ k rows
   per partition),
3. bounded driver merge of ≤ P×k centroid rows → final quantiles.

Estimates depend (slightly) on batch/merge boundaries, so the driver
check is rows-only; the accuracy gate vs exact quantiles is the
``quantile_accuracy`` queryable metric and test_sketches.py.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

from ..exchange import hash_reduce

DEFAULT_K = 512

SKETCH_SCHEMA = pa.schema(
    [("part", pa.int64()), ("value", pa.float64()), ("weight", pa.float64())]
)


def compress(values: np.ndarray, weights: np.ndarray | None = None,
             k: int = DEFAULT_K) -> tuple[np.ndarray, np.ndarray]:
    """Weighted values → ≤k centroids at evenly spaced cumulative ranks.
    Keeps exact min and max so tail quantiles never clip inward."""
    if weights is None:
        weights = np.ones(len(values), dtype=np.float64)
    if len(values) == 0:
        return values.astype(np.float64), weights
    order = np.argsort(values, kind="stable")
    v = values[order].astype(np.float64)
    w = weights[order].astype(np.float64)
    if len(v) <= k:
        return v, w
    cum = np.cumsum(w)
    total = cum[-1]
    # bucket boundaries at evenly spaced cumulative weight
    edges = np.linspace(0, total, k + 1)
    idx = np.searchsorted(cum, edges[1:-1], side="left")
    starts = np.concatenate([[0], idx])
    ends = np.concatenate([idx, [len(v)]])
    out_v, out_w = [], []
    for s, e in zip(starts, ends):
        if e <= s:
            continue
        bw = w[s:e]
        out_v.append(float(np.dot(v[s:e], bw) / bw.sum()))
        out_w.append(float(bw.sum()))
    out_v_arr = np.asarray(out_v)
    out_w_arr = np.asarray(out_w)
    # pin exact extremes (weight borrowed from the edge buckets)
    out_v_arr[0], out_v_arr[-1] = v[0], v[-1]
    return out_v_arr, out_w_arr


def quantiles(values: np.ndarray, weights: np.ndarray,
              qs: list[float]) -> list[float]:
    """Weighted quantiles with linear interpolation between centroids."""
    order = np.argsort(values, kind="stable")
    v, w = values[order], weights[order]
    cum = np.cumsum(w)
    total = cum[-1]
    # midpoint convention: centroid i sits at cum[i] - w[i]/2
    pos = cum - w / 2
    return [float(np.interp(q * total, pos, v)) for q in qs]


def quantile_sketch(ds, column: str, k: int = DEFAULT_K, nparts: int = 16):
    """Dataset → merged (value, weight) centroid arrays (bounded)."""

    def partial(t: pa.Table) -> pa.Table:
        col = t.column(column).to_numpy(zero_copy_only=False).astype(np.float64)
        v, w = compress(col, k=k)
        # spread partial sketches across merge partitions round-robin by
        # content hash so partition sizes stay even
        part = int(np.abs(np.sum(v)) * 1000) % nparts if len(v) else 0
        return pa.Table.from_pydict(
            {
                "part": pa.array([part] * len(v), type=pa.int64()),
                "value": pa.array(v, type=pa.float64()),
                "weight": pa.array(w, type=pa.float64()),
            }
        )

    def merge_part(g) -> "object":
        import pandas as pd

        v, w = compress(
            g["value"].to_numpy(), g["weight"].to_numpy(), k=k
        )
        return pd.DataFrame({"value": v, "weight": w})

    merged = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("part")
        .map_groups(merge_part, batch_format="pandas")
        .take_all()
    )
    v = np.array([r["value"] for r in merged])
    w = np.array([r["weight"] for r in merged])
    return v, w


def q_price_quantiles(sf_dir: str):
    """Approximate p50/p90/p99 of order totalprice via the mergeable
    sketch (rows-only driver check; accuracy gated by
    quantile_accuracy)."""
    import pandas as pd
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_totalprice"])
    v, w = quantile_sketch(ds, "o_totalprice")
    p50, p90, p99 = quantiles(v, w, [0.5, 0.9, 0.99])
    return pd.DataFrame(
        {
            "p50": [round(p50, 2)],
            "p90": [round(p90, 2)],
            "p99": [round(p99, 2)],
            "n_centroids": [len(v)],
            "total_weight": [float(w.sum())],
        }
    )


def q_quantile_accuracy(sf_dir: str):
    """Relative error of the sketch quantiles vs exact numpy quantiles
    on the same column — the queryable gate (≤1% of value)."""
    import pandas as pd
    import pyarrow.parquet as pq
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_totalprice"])
    v, w = quantile_sketch(ds, "o_totalprice")
    approx = quantiles(v, w, [0.5, 0.9, 0.99])
    exact_col = (
        pq.read_table(f"{sf_dir}/orders.parquet", columns=["o_totalprice"])
        .column("o_totalprice")
        .to_numpy(zero_copy_only=False)
    )
    exact = np.quantile(exact_col, [0.5, 0.9, 0.99])
    rel = [abs(a - e) / abs(e) for a, e in zip(approx, exact)]
    return pd.DataFrame(
        {
            "max_rel_err": [round(max(rel), 6)],
            "p50_rel_err": [round(rel[0], 6)],
            "p90_rel_err": [round(rel[1], 6)],
            "p99_rel_err": [round(rel[2], 6)],
            "gate": [0.01],
            "passes": [max(rel) <= 0.01],
        }
    )


# ---------------------------------------------------------------------------
# Misra–Gries heavy hitters: frequent items with ZERO token-keyed shuffle.
#
# token_topk (text_analysis.py) is the exact path — one combiner-compressed
# hash(token) exchange.  This is the bandwidth-starved alternative: each batch
# compresses its exact token counts to a k-counter Misra–Gries summary
# (subtract the (k+1)-th largest count — the mergeable-summaries reduction of
# Agarwal et al. 2012), summaries merge by counter addition + re-reduction,
# so only O(P*k) counter rows ever move.  The sketch is SELF-CERTIFYING: it
# carries the exact total decrement applied at every reduction, which upper-
# bounds the undercount of every reported item — and (classic MG bound) can
# never exceed n_tokens/(k+1).  Every token whose true count exceeds the
# carried error bound is guaranteed present.


def _mg_reduce(tokens: "np.ndarray", counts: "np.ndarray", k: int):
    """Keep ≤k counters by subtracting the (k+1)-th largest count.
    Returns (tokens, counts, decrement)."""
    if len(tokens) <= k:
        return tokens, counts, 0
    order = np.argsort(counts, kind="stable")[::-1]
    d = int(counts[order[k]])
    keep = order[:k]
    new = counts[keep] - d
    pos = new > 0
    return tokens[keep][pos], new[pos], d


def heavy_hitters_tokens(ds, text: str = "text", k: int = 64, nparts: int = 8):
    """Approximate frequent tokens of a corpus (repo-wide ``[a-z0-9]+``
    tokenizer) → bounded pandas DataFrame (token, est_count, err_bound)
    where ``exact - est_count <= err_bound`` for every reported token and
    every token with ``exact > err_bound`` is guaranteed reported."""
    import pandas as pd

    def partial(t: pa.Table) -> pa.Table:
        import polars as pl

        df = (
            pl.from_arrow(t.select([text]))
            .select(pl.col(text).str.to_lowercase().str.extract_all(r"[a-z0-9]+"))
            .explode(text, empty_as_null=True)
            .drop_nulls()
            .group_by(text)
            .len()
        )
        toks = df[text].to_numpy()
        cnts = df["len"].to_numpy().astype(np.int64)
        toks, cnts, d = _mg_reduce(toks, cnts, k)
        import zlib

        # process-stable partitioning (python hash() is seed-randomized)
        part = (zlib.crc32(toks[0].encode()) % nparts) if len(toks) else 0
        return pa.table(
            {
                "part": pa.array([part] * (len(toks) + 1), pa.int64()),
                "token": pa.array(list(toks) + [None], pa.string()),
                "count": pa.array(list(cnts) + [d], pa.int64()),
            }
        )

    def merge_part(g: "pd.DataFrame") -> "pd.DataFrame":
        err = int(g.loc[g["token"].isna(), "count"].sum())
        live = g.dropna(subset=["token"]).groupby("token", sort=False)["count"].sum()
        toks, cnts, d = _mg_reduce(
            live.index.to_numpy(), live.to_numpy().astype(np.int64), k
        )
        return pd.DataFrame(
            {
                "token": list(toks) + [None],
                "count": list(cnts) + [err + d],
            }
        )

    rows = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("part")
        .map_groups(merge_part, batch_format="pandas")
        .take_all()
    )  # bounded: ≤ nparts × (k+1) counter rows
    err = sum(r["count"] for r in rows if r["token"] is None)
    agg: dict[str, int] = {}
    for r in rows:
        if r["token"] is not None:
            agg[r["token"]] = agg.get(r["token"], 0) + int(r["count"])
    toks = np.array(list(agg), dtype=object)
    cnts = np.array(list(agg.values()), dtype=np.int64)
    toks, cnts, d = _mg_reduce(toks, cnts, k)
    err += d
    out = pd.DataFrame({"token": toks, "est_count": cnts})
    out["err_bound"] = int(err)
    return out.sort_values(["est_count", "token"], ascending=[False, True]).reset_index(
        drop=True
    )


# ---------------------------------------------------------------------------
# HyperLogLog distinct-count sketch (Flajolet et al. 2007): cardinality with
# ZERO value-keyed shuffle.
#
# The repo's exact-distinct paths (ds.groupby/unique, token_topk's hash
# exchange) ship one row per distinct value; at web scale the distinct-token
# universe of a 100-TB corpus is itself TBs.  HLL caps ALL movement at
# m = 2^p register rows: each batch folds its distinct values into a local
# register array (<= m rows emitted, independent of batch size — the same
# fixed-feature-space trick as extras/dsir.py), registers merge by MAX (a
# commutative idempotent lattice join, so block boundaries and retries cannot
# change the result), and the estimate reads off the merged array on the
# driver.  Standard error ~ 1.04/sqrt(m) = 1.6% at p=12.
#
# Every step is exactly reproducible in DuckDB SQL (md5 -> top-p-bit register
# / leading-zero rank via bin(), max per register), so the gate in
# extras/metrics.py checks REGISTER-LEVEL bit-exact parity with SQL replaying
# the sketch, plus the estimate's relative error against the exact
# COUNT(DISTINCT) — the sketch itself is cross-engine verified, not just
# "close enough".

HLL_P = 12
HLL_M = 1 << HLL_P
_HLL_SUFFIX_BITS = 64 - HLL_P
_HLL_SUFFIX_MASK = (1 << _HLL_SUFFIX_BITS) - 1


def _hll_rho(h: int) -> tuple[int, int]:
    """64-bit hash -> (register index, leading-zero rank of the suffix)."""
    suffix = h & _HLL_SUFFIX_MASK
    rho = (_HLL_SUFFIX_BITS + 1) - suffix.bit_length() if suffix else _HLL_SUFFIX_BITS + 1
    return h >> _HLL_SUFFIX_BITS, rho


def hll_estimate(registers: np.ndarray) -> float:
    """Standard HLL estimator with the small-range linear-counting
    correction (Flajolet et al. 2007 §4; large-range correction is
    irrelevant below ~1e18)."""
    m = len(registers)
    alpha = 0.7213 / (1.0 + 1.079 / m)
    raw = alpha * m * m / np.power(2.0, -registers.astype(np.float64)).sum()
    zeros = int((registers == 0).sum())
    if raw <= 2.5 * m and zeros > 0:
        return m * math.log(m / zeros)
    return raw


def hll_distinct_tokens(ds, text: str = "text", nparts: int = 8):
    """Corpus -> merged (HLL_M,) uint8 register array for the distinct
    count of ``[a-z0-9]+`` tokens (repo-wide tokenizer)."""

    def partial(t: pa.Table) -> pa.Table:
        import hashlib

        import polars as pl

        toks = (
            pl.from_arrow(t.select([text]))
            .select(pl.col(text).str.to_lowercase().str.extract_all(r"[a-z0-9]+"))
            .explode(text, empty_as_null=True)
            .drop_nulls()
            .unique()[text]
        )
        regs = np.zeros(HLL_M, dtype=np.uint8)
        for tok in toks:
            idx, rho = _hll_rho(int(hashlib.md5(tok.encode()).hexdigest()[:16], 16))
            if rho > regs[idx]:
                regs[idx] = rho
        nz = np.nonzero(regs)[0]
        return pa.table(
            {
                "register": pa.array(nz, type=pa.int64()),
                "rho": pa.array(regs[nz], type=pa.int64()),
            }
        )

    def merge_part(g: pa.Table) -> pa.Table:
        return g.group_by("register").aggregate([("rho", "max")]).rename_columns(
            ["register", "rho"]
        )

    rows = hash_reduce(
        ds.map_batches(partial, batch_format="pyarrow"), ["register"], merge_part, nparts
    ).take_all()  # bounded: <= HLL_M register rows by construction
    regs = np.zeros(HLL_M, dtype=np.uint8)
    for r in rows:
        regs[int(r["register"])] = int(r["rho"])
    return regs


def hll_oracle_sql(text_expr: str = "lower(text)", table: str = "documents") -> str:
    """The register array as one DuckDB query — same md5, same top-p-bit
    register split, same leading-zero rank."""
    return f"""
WITH toks AS (
  SELECT DISTINCT unnest(regexp_extract_all({text_expr}, '[a-z0-9]+')) AS tok
  FROM {table}
),
h AS (
  SELECT CAST(concat('0x', substr(md5(tok), 1, 16)) AS UBIGINT) AS hv FROM toks
),
rr AS (
  SELECT CAST(hv >> {_HLL_SUFFIX_BITS} AS BIGINT) AS register,
         CASE WHEN (hv & ((1::UBIGINT << {_HLL_SUFFIX_BITS}) - 1)) = 0
              THEN {_HLL_SUFFIX_BITS + 1}
              ELSE {_HLL_SUFFIX_BITS + 1}
                   - length(bin(hv & ((1::UBIGINT << {_HLL_SUFFIX_BITS}) - 1)))
         END AS rho
  FROM h
)
SELECT register, max(rho) AS rho FROM rr GROUP BY register ORDER BY register
"""


def q_hll_distinct(sf_dir: str):
    """Query surface: HLL distinct-token estimate over the documents
    corpus (register-level SQL parity + relative-error gate live in the
    hll_* rows of approx_metrics)."""
    import pandas as pd
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    regs = hll_distinct_tokens(ds)
    return pd.DataFrame(
        {
            "estimate": [round(hll_estimate(regs), 4)],
            "nonzero_registers": [int((regs > 0).sum())],
            "m": [HLL_M],
        }
    )


# ---------------------------------------------------------------------------
# Count-Min sketch (Cormode & Muthukrishnan 2005) — mergeable frequency
# sketch for token OCCURRENCE counts, complementing Misra-Gries above:
# MG certifies the heavy tail with a deterministic error bound; CMS
# answers point queries for ANY key in O(1) with the one-sided
# guarantee  true <= estimate <= true + eps*N  (eps = e/CMS_W, w.p.
# 1 - delta per query, delta = e^-CMS_D) — and, unlike MG, CMS partials
# merge by plain elementwise ADDITION, so the distributed build is a
# pure combiner tree with a register exchange bounded by CMS_D*CMS_W
# rows regardless of corpus size.
#
# Every step is exactly reproducible in DuckDB (md5-derived row hashes,
# integer column index, SUM per cell), so the gate checks REGISTER-LEVEL
# bit-exact parity with SQL replaying the sketch, plus the structural
# lower-bound guarantee on probe tokens — same discipline as the HLL
# gate above.

CMS_D = 4
CMS_W = 1024


def _cms_cols(tok: str) -> "np.ndarray":
    """The CMS_D column indexes of one token (md5 of 'd:tok', top 64
    bits, mod CMS_W) — the salted double-hash family used repo-wide."""
    import hashlib

    return np.array(
        [
            int(hashlib.md5(f"{d}:{tok}".encode()).hexdigest()[:16], 16) % CMS_W
            for d in range(CMS_D)
        ],
        dtype=np.int64,
    )


def cms_sketch_tokens(ds, text: str = "text", nparts: int = 8) -> np.ndarray:
    """Corpus -> merged (CMS_D, CMS_W) int64 register matrix counting
    ``[a-z0-9]+`` token occurrences (repo-wide tokenizer, lowercased).

    Per batch: one vectorized polars count per distinct token, then
    CMS_D md5 hashes per DISTINCT token (not per occurrence) fold the
    weighted counts into a local matrix — <= CMS_D*CMS_W nonzero cell
    rows leave each batch no matter how large the batch is.  Cells
    merge by SUM under a coarse cell-keyed exchange; the assembled
    matrix is CMS_D*CMS_W ints, broadcastable anywhere."""

    def partial(t: pa.Table) -> pa.Table:
        import polars as pl

        counts = (
            pl.from_arrow(t.select([text]))
            .select(pl.col(text).str.to_lowercase().str.extract_all(r"[a-z0-9]+"))
            .explode(text, empty_as_null=True)
            .drop_nulls()
            .group_by(text)
            .len()
        )
        local = np.zeros((CMS_D, CMS_W), dtype=np.int64)
        for tok, n in zip(counts[text], counts["len"]):
            local[np.arange(CMS_D), _cms_cols(tok)] += int(n)
        d_idx, col_idx = np.nonzero(local)
        cell = d_idx * CMS_W + col_idx
        return pa.table(
            {
                "cell": pa.array(cell, type=pa.int64()),
                "cnt": pa.array(local[d_idx, col_idx], type=pa.int64()),
            }
        )

    def merge_part(g: pa.Table) -> pa.Table:
        return g.group_by("cell").aggregate([("cnt", "sum")]).rename_columns(
            ["cell", "cnt"]
        )

    rows = hash_reduce(
        ds.map_batches(partial, batch_format="pyarrow"), ["cell"], merge_part, nparts
    ).take_all()  # bounded: <= CMS_D*CMS_W cell rows by construction
    regs = np.zeros((CMS_D, CMS_W), dtype=np.int64)
    for r in rows:
        cell = int(r["cell"])
        regs[cell // CMS_W, cell % CMS_W] = int(r["cnt"])
    return regs


def cms_estimate(regs: np.ndarray, tok: str) -> int:
    """Point query: min over rows (>= true count, structurally)."""
    return int(regs[np.arange(CMS_D), _cms_cols(tok.lower())].min())


def cms_oracle_sql(text_expr: str = "lower(text)", table: str = "documents") -> str:
    """The register matrix as one DuckDB query — same md5 salt, same
    top-64-bit column index, same per-cell SUM."""
    return f"""
WITH toks AS (
  SELECT unnest(regexp_extract_all({text_expr}, '[a-z0-9]+')) AS tok
  FROM {table}
),
tc AS (SELECT tok, COUNT(*) AS cnt FROM toks GROUP BY tok),
cells AS (
  SELECT d,
         CAST(CAST(concat('0x', substr(md5(concat(d, ':', tok)), 1, 16))
              AS UBIGINT) % {CMS_W} AS BIGINT) AS col,
         cnt
  FROM tc CROSS JOIN (SELECT unnest(generate_series(0, {CMS_D - 1})) AS d)
)
SELECT CAST(d * {CMS_W} + col AS BIGINT) AS cell,
       CAST(SUM(cnt) AS BIGINT) AS cnt
FROM cells GROUP BY d, col ORDER BY cell
"""


def q_cms_registers(sf_dir: str):
    """Query surface: the full CMS register table (cell, cnt) over the
    documents corpus — deterministic and hash-comparable; bit-exact SQL
    parity + the point-query bounds are the cms_* rows of
    approx_metrics."""
    import pandas as pd
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    regs = cms_sketch_tokens(ds)
    d_idx, col_idx = np.nonzero(regs)
    return pd.DataFrame(
        {
            "cell": (d_idx * CMS_W + col_idx).astype("int64"),
            "cnt": regs[d_idx, col_idx].astype("int64"),
        }
    ).sort_values("cell", ignore_index=True)


# ---------------------------------------------------------------------------
# Groupwise HyperLogLog — distinct-count per group key ("distinct tokens
# per source", "distinct users per domain") as ONE streaming pass + one
# bounded register exchange, the per-group generalization of
# hll_distinct_tokens above.  Registers use a smaller precision
# (HLL_GROUP_P) than the single-sketch path because per-group state is
# groups x m: at p=8 each group carries <= 256 one-byte registers
# (~1.04/sqrt(256) = 6.5% standard error), so a million group keys cost
# ~256 MB of register rows TOTAL across the cluster — driver only ever
# sees per-group estimates, and the exchange is keyed on hash(key) so
# every group's registers merge in exactly one partition.

HLL_GROUP_P = 8
HLL_GROUP_M = 1 << HLL_GROUP_P
_HLL_GROUP_SUFFIX_BITS = 64 - HLL_GROUP_P
_HLL_GROUP_SUFFIX_MASK = (1 << _HLL_GROUP_SUFFIX_BITS) - 1


def _hll_group_rho(h: int) -> tuple[int, int]:
    suffix = h & _HLL_GROUP_SUFFIX_MASK
    rho = (
        (_HLL_GROUP_SUFFIX_BITS + 1) - suffix.bit_length()
        if suffix
        else _HLL_GROUP_SUFFIX_BITS + 1
    )
    return h >> _HLL_GROUP_SUFFIX_BITS, rho


def hll_group_distinct_tokens(ds, key: str = "source", text: str = "text",
                              nparts: int = 8):
    """(key, register, rho) merged register rows for the distinct
    ``[a-z0-9]+`` token count PER GROUP KEY.  Per batch: vectorized
    distinct (key, token) pairs, one md5 per pair, per-batch MAX fold
    (<= groups x m rows leave a batch); merge = MAX under a coarse
    hash(key) exchange, so each group's registers land whole in one
    partition.  Returns the register table (not materialized per-group
    arrays) so callers can stream estimates."""

    def partial(t: pa.Table) -> pa.Table:
        import hashlib

        import polars as pl

        pairs = (
            pl.from_arrow(t.select([key, text]))
            .with_columns(
                tok=pl.col(text).str.to_lowercase().str.extract_all(r"[a-z0-9]+")
            )
            .drop(text)
            .explode("tok", empty_as_null=True)
            .drop_nulls()
            .unique()
        )
        regs: dict[tuple[str, int], int] = {}
        for k_, tok in zip(pairs[key], pairs["tok"]):
            idx, rho = _hll_group_rho(
                int(hashlib.md5(tok.encode()).hexdigest()[:16], 16)
            )
            cur = regs.get((k_, idx), 0)
            if rho > cur:
                regs[(k_, idx)] = rho
        keys = list(regs)
        return pa.table(
            {
                key: pa.array([k_ for k_, _ in keys], type=pa.string()),
                "register": pa.array([i for _, i in keys], type=pa.int64()),
                "rho": pa.array([regs[kk] for kk in keys], type=pa.int64()),
            }
        )

    def merge_part(g: pa.Table) -> pa.Table:
        return g.group_by([key, "register"]).aggregate([("rho", "max")]).rename_columns(
            [key, "register", "rho"]
        )

    return hash_reduce(
        ds.map_batches(partial, batch_format="pyarrow"), [key], merge_part, nparts
    )


def hll_group_estimates(register_rows, key: str = "source"):
    """Register rows -> per-group (key, estimate, nonzero_registers),
    computed groupwise with the standard estimator + linear counting."""
    import pandas as pd

    if hasattr(register_rows, "to_pandas"):
        df = register_rows.to_pandas()
    else:
        df = register_rows
    out = []
    for k_, grp in df.groupby(key, sort=True):
        regs = np.zeros(HLL_GROUP_M, dtype=np.uint8)
        regs[grp["register"].to_numpy()] = grp["rho"].to_numpy()
        out.append(
            {
                key: k_,
                "estimate": round(hll_estimate(regs), 4),
                "nonzero_registers": int((regs > 0).sum()),
            }
        )
    return pd.DataFrame(out)


def hll_group_oracle_sql(key: str = "source", text_expr: str = "lower(text)",
                         table: str = "documents") -> str:
    """The per-group register table as one DuckDB query — same md5,
    same top-p-bit split, same rank, MAX per (key, register)."""
    return f"""
WITH toks AS (
  SELECT DISTINCT {key} AS k,
         unnest(regexp_extract_all({text_expr}, '[a-z0-9]+')) AS tok
  FROM {table}
),
h AS (
  SELECT k, CAST(concat('0x', substr(md5(tok), 1, 16)) AS UBIGINT) AS hv
  FROM toks
),
rr AS (
  SELECT k, CAST(hv >> {_HLL_GROUP_SUFFIX_BITS} AS BIGINT) AS register,
         CASE WHEN (hv & ((1::UBIGINT << {_HLL_GROUP_SUFFIX_BITS}) - 1)) = 0
              THEN {_HLL_GROUP_SUFFIX_BITS + 1}
              ELSE {_HLL_GROUP_SUFFIX_BITS + 1}
                   - length(bin(hv & ((1::UBIGINT << {_HLL_GROUP_SUFFIX_BITS}) - 1)))
         END AS rho
  FROM h
)
SELECT k AS {key}, register, max(rho) AS rho
FROM rr GROUP BY k, register ORDER BY {key}, register
"""


def q_hll_group_distinct(sf_dir: str):
    """Query surface: per-source distinct-token HLL estimates over the
    documents corpus; per-group register SQL parity + error envelope
    are the hll_group_* rows of approx_metrics."""
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["source", "text"]
    )
    return hll_group_estimates(hll_group_distinct_tokens(ds))


# ---------------------------------------------------------------------------
# Groupwise quantile sketch — per-group percentiles ("p99 per
# endpoint", "length distribution per source") as one streaming pass +
# one group-keyed exchange of CENTROID rows.  Per batch each group
# compresses to <= k (value, weight) centroids before anything leaves
# the block, the hash(key) exchange lands every group's centroids
# whole in one partition, and final quantiles are read off inside that
# partition — per-group state is bounded by k rows regardless of group
# size, and the driver only ever sees (key, q, value) result rows.


def group_quantile_sketch(
    ds,
    key: str,
    column: str,
    qs: tuple = (0.5, 0.9, 0.99),
    k: int = DEFAULT_K,
    nparts: int = 16,
):
    """Dataset -> (key, q, value) per-group approximate quantiles."""

    def partial(t: pa.Table) -> pa.Table:
        import polars as pl

        df = pl.from_arrow(t.select([key, column]))
        keys_out, vals_out, wts_out = [], [], []
        for (k_,), grp in df.group_by(key):
            v, w = compress(
                grp[column].to_numpy().astype(np.float64), k=k
            )
            keys_out.extend([k_] * len(v))
            vals_out.append(v)
            wts_out.append(w)
        if not keys_out:
            return pa.table(
                {
                    key: pa.array([], type=t.schema.field(key).type),
                    "value": pa.array([], type=pa.float64()),
                    "weight": pa.array([], type=pa.float64()),
                }
            )
        return pa.table(
            {
                key: pa.array(keys_out),
                "value": pa.array(np.concatenate(vals_out), type=pa.float64()),
                "weight": pa.array(np.concatenate(wts_out), type=pa.float64()),
            }
        )

    def finalize_part(t: pa.Table) -> "object":
        import pandas as pd

        out = []
        for k_, grp in t.to_pandas().groupby(key, sort=True):
            v, w = compress(
                grp["value"].to_numpy(), grp["weight"].to_numpy(), k=k
            )
            est = quantiles(v, w, list(qs))
            for q, val in zip(qs, est):
                out.append((k_, float(q), float(val)))
        return pd.DataFrame(out, columns=[key, "q", "value"])

    return hash_reduce(
        ds.map_batches(partial, batch_format="pyarrow"), [key], finalize_part, nparts
    )


def q_group_quantiles(sf_dir: str):
    """Query surface: p50/p90/p99 of order totalprice PER ORDER
    PRIORITY; per-group accuracy vs the exact quantiles is the
    group_quantile_max_rel_err row of approx_metrics."""
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderpriority", "o_totalprice"]
    )
    out = (
        group_quantile_sketch(ds, "o_orderpriority", "o_totalprice")
        .to_pandas()
        .sort_values(["o_orderpriority", "q"], ignore_index=True)
    )
    out["value"] = out["value"].round(2)
    return out
