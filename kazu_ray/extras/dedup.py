"""Deduplication operators for large-scale corpora.

Not present in the reference (SURVEY.md §2e notes the gap) but required
for a training-data-scale engine:

- exact dedup: content-hash -> hash-partitioned groupby -> keep first;
- word-set Jaccard pairs (exact, SQL-oracle-able);
- MinHash + LSH banding near-dup (shingle -> minhash -> band ->
  groupby(band) -> candidate pairs -> verify);
- SimHash near-dup (hamming-banded);
- embedding-cosine near-dup over the ``embeddings`` table.

All hashing is deterministic across processes (md5-derived — never
Python's salted ``hash``) and reproducible in DuckDB (md5_number_upper),
so exact dedup, SimHash AND the MinHash-LSH banding all carry exact
cross-engine SQL oracles.
"""

from __future__ import annotations

import hashlib
import re
import numpy as np
import pyarrow as pa

from ..context import input_bytes, shuffle_partitions

_WORD = re.compile(r"[A-Za-z0-9]+")

# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------


def q_exact_dedup(sf_dir: str):
    """Survivors of exact-content dedup: min doc_id per md5(text).

    Pattern: hash in map_batches (vectorizable), groupby(hash) shuffle,
    keep one winner per group — at scale the shuffle is keyed on the
    digest, which is uniformly distributed (no skew by construction)."""
    import ray.data as rd
    from ray.data.aggregate import Min

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def add_fp(t: pa.Table) -> pa.Table:
        fps = [hashlib.md5(x.encode()).hexdigest() for x in t.column("text").to_pylist()]
        return pa.Table.from_pydict(
            {"fp": pa.array(fps), "doc_id": t.column("doc_id")}
        )

    return (
        ds.map_batches(add_fp, batch_format="pyarrow")
        .groupby(
            "fp",
            num_partitions=shuffle_partitions(
                estimated_bytes=input_bytes(f"{sf_dir}/documents.parquet")
            ),
        )
        .aggregate(Min("doc_id", alias_name="doc_id"))
        .select_columns(["doc_id"])
        .sort("doc_id")
    )


# ---------------------------------------------------------------------------
# word-set Jaccard (exact pairs; the SQL-checkable n-gram-Jaccard baseline)
# ---------------------------------------------------------------------------


def q_jaccard_pairs(sf_dir: str, limit_docs: int = 120, threshold: float = 0.8):
    """All-pairs word-set Jaccard >= threshold over the first
    ``limit_docs`` docs.  Exact (quadratic) — the verification kernel the
    LSH path below also uses; bounded input keeps it tractable, and the
    DuckDB oracle checks it bit-for-bit."""
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    small = ds.filter(expr=f"doc_id < {limit_docs}")

    def to_sets(t: pa.Table) -> pa.Table:
        sets = [
            sorted(set(w for w in _WORD.findall(x.lower())))
            for x in t.column("text").to_pylist()
        ]
        return pa.Table.from_pydict(
            {"doc_id": t.column("doc_id"), "words": pa.array(sets, type=pa.list_(pa.string()))}
        )

    rows = to_sets(small.take_batch(limit_docs * 2, batch_format="pyarrow")).to_pylist()
    rows.sort(key=lambda r: r["doc_id"])
    out_a, out_b, out_j = [], [], []
    word_sets = [(r["doc_id"], set(r["words"])) for r in rows]
    for i in range(len(word_sets)):
        a_id, a_set = word_sets[i]
        for j in range(i + 1, len(word_sets)):
            b_id, b_set = word_sets[j]
            inter = len(a_set & b_set)
            union = len(a_set | b_set)
            jac = inter / union if union else 0.0
            # unrounded: single IEEE division, bit-identical to the oracle
            if jac >= threshold:
                out_a.append(a_id)
                out_b.append(b_id)
                out_j.append(jac)
    import ray.data as rd2

    return rd2.from_arrow(
        pa.Table.from_pydict(
            {
                "doc_a": pa.array(out_a, type=pa.int64()),
                "doc_b": pa.array(out_b, type=pa.int64()),
                "jaccard": pa.array(out_j, type=pa.float64()),
            }
        )
    )


# ---------------------------------------------------------------------------
# MinHash + LSH
# ---------------------------------------------------------------------------

N_PERM = 64
N_BANDS = 16  # 16 bands x 4 rows
_ROWS_PER_BAND = N_PERM // N_BANDS
# Mersenne-31 modulus (the classic 32-bit MinHash family): a*x + b with
# a,b < 2^31 and x < 2^32 stays < 2^63 — EXACT in int64, so DuckDB
# BIGINT arithmetic reproduces signatures bit-for-bit and the LSH
# pipeline gets a true SQL oracle — while the product still wraps the
# modulus ~2^32 times, so the 64 permutations mix independently (a
# 2^61 modulus here would barely wrap and correlate the permutations).
_MERSENNE = (1 << 31) - 1
_rng = np.random.default_rng(20240817)
_A = _rng.integers(1, _MERSENNE, size=N_PERM, dtype=np.int64)
_B = _rng.integers(0, _MERSENNE, size=N_PERM, dtype=np.int64)


def _gram_hash32(gram: str) -> int:
    """Upper 32 bits of the md5-LE64 value — DuckDB computes the same
    as ``md5_number_upper(gram) >> 32`` (see :func:`_word_hash64`)."""
    return int.from_bytes(hashlib.md5(gram.encode()).digest()[:8], "little") >> 32


def _shingles(text: str, n: int = 3) -> np.ndarray:
    words = _WORD.findall(text.lower())
    if len(words) < n:
        grams = [" ".join(words)] if words else [""]
    else:
        grams = [" ".join(words[i : i + n]) for i in range(len(words) - n + 1)]
    return np.unique(
        np.fromiter((_gram_hash32(g) for g in grams), dtype=np.int64, count=len(grams))
    )


def minhash_signature(text: str) -> np.ndarray:
    """Scalar reference spec for one doc's signature; the batch path
    (minhash_signatures_batch) is property-tested equal to this."""
    sh = _shingles(text)
    # (a*x + b) mod p for all perms at once: (n_sh, n_perm)
    vals = (sh[:, None] * _A[None, :] + _B[None, :]) % _MERSENNE
    return vals.min(axis=0)


def minhash_signatures_batch(texts: list[str]) -> np.ndarray:
    """(n_docs, N_PERM) signatures, vectorized: polars does the
    lowercase/word-extract/3-gram construction for the whole batch, one
    md5 call per gram (no python joins), a single batched
    permutation product, and np.minimum.reduceat over doc boundaries.

    Duplicate shingles are NOT deduped (unlike _shingles) — min over a
    multiset equals min over its set, so signatures are identical."""
    import polars as pl

    n = len(texts)
    if n == 0:
        return np.empty((0, N_PERM), dtype=np.int64)
    df = pl.DataFrame({"row": np.arange(n, dtype=np.int64), "text": texts})
    df = df.with_columns(
        pl.col("text").str.to_lowercase().str.extract_all(r"[A-Za-z0-9]+").alias("w")
    ).with_columns(pl.col("w").list.len().cast(pl.Int64).alias("nw"))
    frames = []
    long_docs = df.filter(pl.col("nw") >= 3)
    if long_docs.height:
        ex = long_docs.select(
            "row", "nw", "w", pl.int_ranges(0, pl.col("nw")).alias("pos")
        ).explode(["w", "pos"], empty_as_null=True)
        # global shift is safe: cross-doc grams fail pos <= nw-3
        ex = ex.with_columns(
            (pl.col("w") + " " + pl.col("w").shift(-1) + " " + pl.col("w").shift(-2)).alias(
                "gram"
            )
        ).filter(pl.col("pos") <= pl.col("nw") - 3)
        frames.append(ex.select("row", "gram"))
    short_docs = df.filter(pl.col("nw") < 3)
    if short_docs.height:
        frames.append(
            short_docs.select("row", pl.col("w").list.join(" ").alias("gram"))
        )
    grams = pl.concat(frames).sort("row", maintain_order=True)
    rows = grams["row"].to_numpy()
    # md5 each DISTINCT gram once (same vocab trick as the SimHash
    # kernel): repeated 3-grams across a batch are common, and a dict
    # probe is ~6x cheaper than an md5 call
    vocab: dict[str, int] = {}
    codes = np.fromiter(
        (vocab.setdefault(g, len(vocab)) for g in grams["gram"].to_list()),
        dtype=np.int64,
        count=grams.height,
    )
    hv = np.empty(len(vocab), dtype=np.int64)
    for g, i in vocab.items():
        hv[i] = _gram_hash32(g)
    gh = hv[codes]
    vals = (gh[:, None] * _A[None, :] + _B[None, :]) % _MERSENNE
    boundaries = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
    return np.minimum.reduceat(vals, boundaries, axis=0)


def _band_hashes(sigs: np.ndarray) -> np.ndarray:
    """(n_docs, N_BANDS) uint64 bucket keys: splitmix64-mixed fold of
    each band's _ROWS_PER_BAND signature values.  Equal chunks hash
    equal (the LSH requirement); 64-bit mixing makes cross-chunk
    collisions negligible, so candidate PAIRS match the reference
    per-chunk cryptographic-hash formulation."""
    chunks = sigs.reshape(sigs.shape[0], N_BANDS, _ROWS_PER_BAND).astype(np.uint64)
    h = np.full((sigs.shape[0], N_BANDS), np.uint64(0x9E3779B97F4A7C15))
    for r in range(_ROWS_PER_BAND):
        x = chunks[:, :, r]
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        x = x ^ (x >> np.uint64(31))
        h = (h ^ x) * np.uint64(0x100000001B3)
    return h


def minhash_bands_batch(batch: pa.Table) -> pa.Table:
    """doc -> N_BANDS rows of (band_id, band_hash, doc_id): the explode
    step before the LSH groupby shuffle.  Fully vectorized."""
    doc_ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
    sigs = minhash_signatures_batch(batch.column("text").to_pylist())
    n = len(doc_ids)
    bh = _band_hashes(sigs)  # (n, N_BANDS)
    band_ids = np.tile(np.arange(N_BANDS, dtype=np.int32), n)
    # coarse shuffle partition: band salted by 2 hash bits, so the
    # groupby has ~4*N_BANDS groups, each holding many buckets
    band_parts = band_ids * 4 + (bh.reshape(-1) & np.uint64(3)).astype(np.int32)
    return pa.Table.from_pydict(
        {
            "band_id": pa.array(band_ids, type=pa.int32()),
            "band_hash": pa.array(bh.reshape(-1).view(np.int64), type=pa.int64()),
            "band_part": pa.array(band_parts, type=pa.int32()),
            "doc_id": pa.array(np.repeat(doc_ids, N_BANDS), type=pa.int64()),
        }
    )


def q_minhash_candidates(sf_dir: str):
    """LSH candidate pairs: shingle -> minhash -> band-explode ->
    groupby(coarse band partition) -> vectorized within-partition
    bucket-pairing -> cross-band dedup.

    The shuffle key is the band partition (band_id salted by a few bits
    of band_hash, not the raw (band_id, band_hash) bucket): per-group
    python overhead is amortized over thousands of buckets, and the
    per-bucket pairing runs vectorized in polars inside each group.
    Bucket sizes still bound reduce-side skew."""
    import polars as pl
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def bucket_pairs(g) -> pa.Table:
        df = pl.from_pandas(g) if not isinstance(g, pl.DataFrame) else g
        grouped = df.group_by("band_hash").agg(pl.col("doc_id").sort().alias("ids"))
        a_out, b_out = [], []
        for ids in grouped["ids"].to_list():
            if len(ids) < 2:
                continue
            for i in range(len(ids)):
                for j in range(i + 1, len(ids)):
                    a_out.append(ids[i])
                    b_out.append(ids[j])
        return pa.Table.from_pydict(
            {
                "doc_a": pa.array(a_out, type=pa.int64()),
                "doc_b": pa.array(b_out, type=pa.int64()),
            }
        )

    pairs = (
        ds.map_batches(minhash_bands_batch, batch_format="pyarrow")
        .groupby("band_part")
        .map_groups(bucket_pairs, batch_format="pandas")
    )
    # dedup candidate pairs discovered in multiple bands
    from ray.data.aggregate import Count

    return (
        pairs.groupby(
            ["doc_a", "doc_b"],
            num_partitions=shuffle_partitions(
                estimated_bytes=input_bytes(f"{sf_dir}/documents.parquet")
            ),
        )
        .aggregate(Count(alias_name="n_bands"))
        .sort(["doc_a", "doc_b"])
    )


def _minhash_pairs_cte() -> str:
    """WITH-clause body recomputing the full MinHash-LSH candidate-pair
    pipeline in DuckDB: word 3-gram shingles, md5-derived 32-bit gram
    hash, the exact (a*x+b) mod (2^61-1) signature family (31-bit
    coefficients keep every product inside BIGINT), 16 bands of 4 rows,
    pairs on identical band chunks.  Shared by the candidate-pair and
    connected-component oracles."""
    perm_rows = ", ".join(
        f"({i}, {int(_A[i])}, {int(_B[i])})" for i in range(N_PERM)
    )
    return f"""
        ws AS (
            SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS w
            FROM documents
        ),
        expl AS (
            SELECT doc_id, len(w) AS nw, unnest(w) AS tok,
                   generate_subscripts(w, 1) AS pos
            FROM ws WHERE len(w) >= 3
        ),
        g3 AS (
            SELECT doc_id,
                   tok || ' ' || LEAD(tok, 1) OVER win
                       || ' ' || LEAD(tok, 2) OVER win AS gram
            FROM expl
            WINDOW win AS (PARTITION BY doc_id ORDER BY pos)
            QUALIFY pos <= nw - 2
        ),
        gshort AS (
            SELECT doc_id, array_to_string(w, ' ') AS gram
            FROM ws WHERE len(w) < 3
        ),
        grams AS (SELECT * FROM g3 UNION ALL SELECT * FROM gshort),
        hx AS (
            SELECT doc_id, CAST(md5_number_upper(gram) >> 32 AS BIGINT) AS x
            FROM grams
        ),
        perms(perm, a, b) AS (VALUES {perm_rows}),
        sig AS (
            SELECT doc_id, perm, MIN((x * a + b) % {_MERSENNE}) AS mh
            FROM hx CROSS JOIN perms
            GROUP BY doc_id, perm
        ),
        bands AS (
            SELECT doc_id, perm // {_ROWS_PER_BAND} AS band_id,
                   list(mh ORDER BY perm) AS chunk
            FROM sig GROUP BY doc_id, perm // {_ROWS_PER_BAND}
        ),
        cand AS (
            SELECT x.doc_id AS doc_a, y.doc_id AS doc_b,
                   COUNT(*) AS n_bands
            FROM bands x JOIN bands y
              ON x.band_id = y.band_id AND x.chunk = y.chunk
             AND x.doc_id < y.doc_id
            GROUP BY 1, 2
        )"""


def minhash_oracle_sql() -> str:
    """Exact cross-engine check of the LSH candidate pairs AND the
    per-pair colliding-band counts (the only engine-side deviation
    possible is a 64-bit splitmix band-hash collision, probability
    ~2^-50 at test scale)."""
    return f"""
        WITH {_minhash_pairs_cte()}
        SELECT doc_a, doc_b, n_bands FROM cand ORDER BY doc_a, doc_b
    """


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------


def _word_hash64(word: str) -> int:
    """First 8 md5 bytes, little-endian — chosen because DuckDB's
    ``md5_number_upper`` computes the identical value, so the full
    SimHash is reproducible in ANSI-ish SQL and the oracle pins the
    operator bit-exactly (any uniform 64-bit hash is equally valid for
    SimHash semantics; this one is cross-engine checkable)."""
    return int.from_bytes(hashlib.md5(word.encode()).digest()[:8], "little")


def simhash64(text: str) -> int:
    """Single-doc reference implementation (the batch kernel below is the
    hot path; this stays as the semantic spec + test oracle)."""
    acc = np.zeros(64, dtype=np.int64)
    shifts = np.arange(63, -1, -1, dtype=np.uint64)
    for w in _WORD.findall(text.lower()):
        h = np.uint64(_word_hash64(w))
        bits = ((h >> shifts) & np.uint64(1)).astype(np.int64)
        acc += bits * 2 - 1
    out = 0
    for i, v in enumerate(acc):
        if v > 0:
            out |= 1 << (63 - i)
    return out


def simhash64_batch(texts: list[str]) -> np.ndarray:
    """Vectorized batch SimHash, bit-identical to :func:`simhash64`.

    Word hashing (the round-1 per-word python bottleneck) is amortized
    over the batch vocabulary — each unique word is hashed once; the
    per-doc accumulate is a numpy row-sum over a precomputed ±1 bit
    matrix."""
    vocab: dict[str, int] = {}
    idx_lists = []
    for t in texts:
        toks = _WORD.findall(t.lower())
        idx_lists.append(
            np.fromiter((vocab.setdefault(w, len(vocab)) for w in toks), dtype=np.int64, count=len(toks))
        )
    if vocab:
        hashes = np.empty(len(vocab), dtype=np.uint64)
        for w, i in vocab.items():
            hashes[i] = _word_hash64(w)
        shifts = np.arange(63, -1, -1, dtype=np.uint64)
        bit_matrix = (
            ((hashes[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.int64) * 2 - 1
        )  # (V, 64), MSB first
    else:
        bit_matrix = np.zeros((0, 64), dtype=np.int64)
    out = np.empty(len(texts), dtype=np.uint64)
    zero = np.zeros(64, dtype=np.int64)
    for i, idxs in enumerate(idx_lists):
        acc = bit_matrix[idxs].sum(axis=0) if len(idxs) else zero
        packed = np.packbits((acc > 0).astype(np.uint8))  # 8 bytes, MSB first
        out[i] = packed.view(">u8")[0]
    return out


def q_simhash(sf_dir: str):
    """64-bit SimHash per document (hamming-banded near-dup key)."""
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def sh(t: pa.Table) -> pa.Table:
        vals = simhash64_batch(t.column("text").to_pylist())
        return pa.Table.from_pydict(
            {
                "doc_id": t.column("doc_id"),
                # shift into signed int64 for parquet/oracle friendliness
                "simhash": pa.array(
                    (vals - np.uint64(1 << 63)).view(np.int64), type=pa.int64()
                ),
            }
        )

    return ds.map_batches(sh, batch_format="pyarrow").sort("doc_id")


def simhash_oracle_sql() -> str:
    """Cross-engine SimHash: DuckDB recomputes the identical 64-bit
    fingerprint (md5_number_upper == first-8-md5-bytes little-endian ==
    :func:`_word_hash64`), so the hash compare pins tokenization, word
    hashing, the ±1 bit vote and the sign pack bit-exactly."""
    return """
        WITH toks AS (
            SELECT doc_id,
                   unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS w
            FROM documents
        ),
        h AS (SELECT doc_id, md5_number_upper(w) AS h FROM toks),
        bits AS (
            SELECT doc_id, b,
                   CASE WHEN SUM(CASE WHEN (h >> (63 - b)) & 1 = 1
                                      THEN 1 ELSE -1 END) > 0
                        THEN 1 ELSE 0 END AS bit
            FROM h CROSS JOIN range(64) t(b)
            GROUP BY doc_id, b
        ),
        sim AS (
            SELECT doc_id,
                   CAST(SUM(CAST(bit AS HUGEINT) * (CAST(1 AS HUGEINT) << (63 - b)))
                        - 9223372036854775808 AS BIGINT) AS simhash
            FROM bits GROUP BY doc_id
        )
        SELECT d.doc_id,
               COALESCE(s.simhash, -9223372036854775808) AS simhash
        FROM documents d LEFT JOIN sim s USING (doc_id)
        ORDER BY d.doc_id
    """


# ---------------------------------------------------------------------------
# embedding-cosine near-dup
# ---------------------------------------------------------------------------


BROADCAST_LIMIT = 200_000  # embedding rows; above it the IVF cells path runs


def q_embedding_neardup(
    sf_dir: str,
    threshold: float = 0.35,
    n_cells: int = 8,
):
    """Pairs of embeddings with cosine >= threshold.

    Small-table path (row count <= BROADCAST_LIMIT, the oracle-checked
    one): normalized matrix broadcast via ray.put; each batch computes
    its block of the similarity matrix (blocked matmul) and emits
    qualifying pairs — O(n^2/B) per task, no shuffle.

    Past ``BROADCAST_LIMIT`` the whole-matrix broadcast would outgrow
    the object store, so pairs route through IVF cells instead
    (:func:`_embedding_neardup_cells`): top-2 multi-assignment + within-
    cell pairwise matmul — no global broadcast, one shuffle keyed on
    cell.  Approximate (pairs sharing no top-2 cell are missed);
    recall vs the exact path is pinned in tests."""
    import ray
    import ray.data as rd

    import pyarrow.parquet as pq

    n_rows = pq.read_metadata(f"{sf_dir}/embeddings.parquet").num_rows
    if n_rows > BROADCAST_LIMIT:
        # cells must scale with the corpus so one cell's pairwise matmul
        # fits a worker: target ~8k vectors/cell including replicas
        replicas = 3
        scaled_cells = max(n_cells, -(-n_rows * replicas // 8192))
        return _embedding_neardup_cells(sf_dir, threshold, scaled_cells, replicas=replicas)

    emb = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    ids = np.asarray(emb.column("vec_id").to_pylist(), dtype=np.int64)
    mat = np.asarray(emb.column("embedding").to_pylist(), dtype=np.float64)
    mat /= np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)
    mat_ref = ray.put((ids, mat))

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])

    def block(t: pa.Table) -> pa.Table:
        all_ids, all_mat = ray.get(mat_ref)
        q_ids = np.asarray(t.column("vec_id").to_pylist(), dtype=np.int64)
        q = np.asarray(t.column("embedding").to_pylist(), dtype=np.float64)
        q /= np.maximum(np.linalg.norm(q, axis=1, keepdims=True), 1e-12)
        sims = q @ all_mat.T
        qi, ai = np.where(sims >= threshold)
        keep = q_ids[qi] < all_ids[ai]  # each pair once, a < b
        from ..functions.rounding import round_half_away

        return pa.Table.from_pydict(
            {
                "vec_a": pa.array(q_ids[qi][keep], type=pa.int64()),
                "vec_b": pa.array(all_ids[ai][keep], type=pa.int64()),
                "cosine": pa.array(
                    round_half_away(sims[qi, ai][keep], 4), type=pa.float64()
                ),
            }
        )

    return ds.map_batches(block, batch_format="pyarrow", batch_size=1024).sort(["vec_a", "vec_b"])


def _embedding_neardup_cells(sf_dir: str, threshold: float, n_cells: int, replicas: int = 3):
    """Scale path for embedding near-dup: IVF-cell-bucketed pairwise.

    1. centroids from a bounded sample (similarity._kmeans, driver-tiny)
    2. map_batches: each vector exploded to its top-``replicas`` cells
       (pairs co-locate in at least one cell with high probability; 3
       replicas hold recall ~0.97+ even on isotropic random embeddings,
       the IVF-adversarial case — see similarity.build_ivf_index)
    3. groupby(cell).map_groups: vectorized within-cell matmul emits
       pairs a<b above threshold (a cell is one worker's working set —
       n_cells scales with the corpus so cells stay heap-sized)
    4. pairs seen via two shared cells dedupe through a groupby max
    """
    import ray
    import ray.data as rd
    from ray.data.aggregate import Max

    from ..functions.rounding import round_half_away
    from .similarity import _batch_matrix, _kmeans

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    # sample scales with the cell count (see similarity.build_ivf_index)
    sample = pa.concat_tables(
        ds.limit(max(4096, 16 * n_cells)).iter_batches(batch_format="pyarrow", batch_size=None)
    )
    _, sample_mat = _batch_matrix(sample)
    centroids = _kmeans(sample_mat, n_cells)
    cent_ref = ray.put(centroids)

    def explode_topr(t: pa.Table) -> pa.Table:
        cents = ray.get(cent_ref)
        ids, mat = _batch_matrix(t)
        r = min(replicas, len(cents))
        top = np.argsort(-(mat @ cents.T), axis=1)[:, :r]
        rep_ids = np.repeat(ids, r)
        cells = top.ravel().astype(np.int64)
        # carry the normalized vectors as fixed-size lists
        dim = mat.shape[1]
        rep_mat = np.repeat(mat, r, axis=0)
        return pa.Table.from_pydict(
            {
                "cell": pa.array(cells),
                "vec_id": pa.array(rep_ids, type=pa.int64()),
                "nvec": pa.FixedSizeListArray.from_arrays(
                    pa.array(rep_mat.ravel(), type=pa.float64()), dim
                ),
            }
        )

    def pairs_in_cell(t: pa.Table) -> pa.Table:
        ids = t.column("vec_id").combine_chunks().to_numpy(zero_copy_only=False)
        nv = t.column("nvec").combine_chunks()
        mat = nv.flatten().to_numpy(zero_copy_only=False).reshape(len(nv), -1)
        sims = mat @ mat.T
        ai, bi = np.where(sims >= threshold)
        keep = ids[ai] < ids[bi]
        return pa.Table.from_pydict(
            {
                "vec_a": pa.array(ids[ai][keep], type=pa.int64()),
                "vec_b": pa.array(ids[bi][keep], type=pa.int64()),
                "cosine": pa.array(
                    round_half_away(sims[ai, bi][keep], 4), type=pa.float64()
                ),
            }
        )

    pairs = (
        ds.map_batches(explode_topr, batch_format="pyarrow")
        .groupby("cell")
        .map_groups(pairs_in_cell, batch_format="pyarrow")
    )
    return (
        pairs.groupby(
            ["vec_a", "vec_b"],
            num_partitions=shuffle_partitions(
                estimated_bytes=input_bytes(f"{sf_dir}/embeddings.parquet")
            ),
        )
        .aggregate(Max("cosine", alias_name="cosine"))
        .sort(["vec_a", "vec_b"])
    )
