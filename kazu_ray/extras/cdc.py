"""Content-defined chunking (CDC) dedup: byte-level, edit-robust
global keep-first deduplication.

extras/chunk_dedup.py segments by FIXED word count, so inserting one
word near the top of a document shifts every later chunk and defeats
dedup of the unchanged tail.  CDC (Muthitacharoen et al. 2001, LBFS;
Xia et al. 2016, FastCDC) instead cuts where a rolling hash of the
last ``W`` bytes hits a mask — boundaries are a pure function of LOCAL
content, so after an insertion the chunker re-synchronises and the
unchanged tail produces byte-identical chunks (property-tested in
tests/test_cdc.py::test_edit_robustness).

Chunker (``chunk_spans``) — vectorised, no per-byte Python loop:

* windowed polynomial rolling hash WITHOUT reset, so every position's
  hash is computable in one shot from prefix sums:
  ``H_i = P^i * (T_i - T_{i-W})`` with ``T_i = sum_{k<=i} b_k * Q^k``
  and ``Q = P^{-1} (mod 2^64)`` — all uint64 wraparound arithmetic
  (cumsum / accumulate), O(n) per document.
* position ``i`` is a CANDIDATE cut iff ``H_i & MASK == 0``
  (geometric inter-cut gap, mean ``2^AVG_BITS`` bytes);
* a greedy pass enforces ``MIN_LEN <= len <= MAX_LEN`` (cut at the
  first candidate past MIN, force a cut at MAX when none appears) —
  this loop is O(#chunks), not O(#bytes).

Distributed shape — identical to chunk_dedup's round-5 hash-only
classification exchange:

1. scan 1 ships KEYS ONLY: (h1, h2, doc_id, chunk_no) where (h1, h2)
   is the split 128-bit md5 of the chunk bytes (~40 B/row);
2. the ``hash(h1)`` exchange runs chunk_dedup's reducer: sort +
   ``is_first_distinct`` over (h1, h2) marks the global keep-first
   winner; ONLY losers leave as thin (doc_id, chunk_no) verdicts;
3. verdict apply routed by measured loser count: broadcast anti-join
   (text never crosses an exchange; corpus scanned twice from
   storage) or co-group fallback on hash(doc_id) (text crosses ONE
   exchange) — same byte-volume story as chunk_dedup.

Correctness: the whole operator is replayed by a single-process
reference (same chunker, dict keep-first, md5 digests) and compared
bit-exactly — the ``cdc_parity`` row of approx_metrics.  A SQL oracle
is impossible here by design: the rolling hash is not expressible in
DuckDB, so this uses the pq_path_equal-style reference-replay gate.

Reference scope note: the reference engine (KAZU) has no corpus-level
dedup; this belongs to the training-data operator family the engine
adds (SURVEY.md §2l "beyond the reference").
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

from ..context import shuffle_partitions
from ..exchange import hash_reduce
from .chunk_dedup import _losers_in_partition

# rolling-hash multiplier (odd => invertible mod 2^64) and its inverse
_P = np.uint64(0x9E3779B97F4A7C15)
_Q = np.uint64(pow(int(_P), -1, 1 << 64))
W = 16  # rolling window (bytes)
MIN_LEN = 24  # hard minimum chunk length (>= W so every cut has a full window)
AVG_BITS = 5  # mean gap between candidates = 2^5 = 32 bytes
MAX_LEN = 128  # hard maximum chunk length
_MASK = np.uint64((1 << AVG_BITS) - 1)

# broadcast the loser verdict table at most this large (same routing
# policy as chunk_dedup.BROADCAST_MAX_LOSERS)
BROADCAST_MAX_LOSERS = 2_000_000

CDC_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("n_chunks", pa.int64()),
        ("n_kept", pa.int64()),
        ("kept_frac", pa.float64()),
        ("kept_digest", pa.string()),
    ]
)


def _candidate_cuts(data: np.ndarray) -> np.ndarray:
    """All candidate cut positions (cut AFTER byte i) for a uint8
    array, fully vectorised: H_i = P^i * (T_i - T_{i-W}) mod 2^64."""
    n = len(data)
    if n < W:
        return np.empty(0, dtype=np.int64)
    b = data.astype(np.uint64)
    with np.errstate(over="ignore"):
        qpow = np.empty(n, dtype=np.uint64)
        qpow[0] = np.uint64(1)
        if n > 1:
            np.multiply.accumulate(np.full(n - 1, _Q, dtype=np.uint64), out=qpow[1:])
        ppow = np.empty(n, dtype=np.uint64)
        ppow[0] = np.uint64(1)
        if n > 1:
            np.multiply.accumulate(np.full(n - 1, _P, dtype=np.uint64), out=ppow[1:])
        t = np.cumsum(b * qpow, dtype=np.uint64)
        # window ending at i (i >= W-1): T_i - T_{i-W} (T_{-1} = 0)
        diff = t[W - 1 :].copy()
        diff[1:] -= t[:-W]
        h = ppow[W - 1 :] * diff
    return (np.nonzero((h & _MASK) == np.uint64(0))[0] + (W - 1)).astype(np.int64)


def chunk_spans(data: bytes) -> list[tuple[int, int]]:
    """Deterministic CDC byte spans tiling ``data`` exactly.  Every
    span is MIN_LEN..MAX_LEN bytes except a trailing remainder (or a
    document shorter than MIN_LEN).  Greedy over the sparse candidate
    array: O(#chunks) Python iterations."""
    n = len(data)
    if n == 0:
        return []
    cand = _candidate_cuts(np.frombuffer(data, dtype=np.uint8))
    spans: list[tuple[int, int]] = []
    start = 0
    while start < n:
        limit = min(start + MAX_LEN, n)
        lo = start + MIN_LEN - 1  # earliest admissible cut position
        j = int(np.searchsorted(cand, lo))
        if j < len(cand) and cand[j] < start + MAX_LEN and int(cand[j]) + 1 <= n:
            end = int(cand[j]) + 1
        else:
            end = limit
        spans.append((start, end))
        start = end
    return spans


def _doc_chunks(doc_id: int, text: str):
    """(doc_id, chunk_no, chunk_bytes) triples for one document."""
    data = text.encode("utf-8")
    return [
        (doc_id, no, data[s:e]) for no, (s, e) in enumerate(chunk_spans(data))
    ]


def _split_md5(chunk: bytes) -> tuple[int, int]:
    """128-bit md5 split into two uint64 halves — the same
    hash-collision class as every md5-keyed dedup in this repo, and
    replayable by the single-process reference."""
    d = hashlib.md5(chunk).digest()
    return (
        int.from_bytes(d[:8], "big"),
        int.from_bytes(d[8:], "big"),
    )


def _keys_batch(batch: pa.Table) -> pa.Table:
    """Scan-1 map: keys only — chunk bytes never leave the task."""
    h1s, h2s, dids, cnos = [], [], [], []
    for did, text in zip(
        batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
    ):
        for _, no, chunk in _doc_chunks(did, text):
            h1, h2 = _split_md5(chunk)
            h1s.append(h1)
            h2s.append(h2)
            dids.append(did)
            cnos.append(no)
    return pa.table(
        {
            "h1": pa.array(np.array(h1s, dtype=np.uint64), type=pa.uint64()),
            "h2": pa.array(np.array(h2s, dtype=np.uint64), type=pa.uint64()),
            "doc_id": pa.array(dids, type=pa.int64()),
            "chunk_no": pa.array(cnos, type=pa.int64()),
        }
    )


def _reassemble(doc_id: int, chunks: list[bytes], keep: list[bool]) -> dict:
    kept = [c for c, k in zip(chunks, keep) if k]
    n_kept = len(kept)
    return {
        "doc_id": doc_id,
        "n_chunks": len(chunks),
        "n_kept": n_kept,
        "kept_frac": n_kept / len(chunks),
        "kept_digest": hashlib.md5(b"".join(kept)).hexdigest() if n_kept else None,
    }


class _ApplyBroadcast:
    """Actor: re-chunk each doc locally, drop broadcast loser keys,
    reassemble.  Loser set fetched ONCE per actor in __init__."""

    def __init__(self, losers_ref):
        import ray

        tbl = ray.get(losers_ref)
        self.drop = set(
            zip(
                tbl.column("doc_id").to_pylist(),
                tbl.column("chunk_no").to_pylist(),
            )
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = []
        for did, text in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            triples = _doc_chunks(did, text)
            if not triples:
                continue
            chunks = [c for _, _, c in triples]
            keep = [(did, no) not in self.drop for _, no, _ in triples]
            rows.append(_reassemble(did, chunks, keep))
        return pa.Table.from_pylist(rows, schema=CDC_SCHEMA)


_UNION_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("chunk_no", pa.int64()),
        ("chunk", pa.binary()),
        ("verdict", pa.bool_()),
    ]
)


def _doc_rows(batch: pa.Table) -> pa.Table:
    """Fallback scan-2 map: chunk DATA rows for the co-group exchange
    (the one path where text crosses a wire — exactly once)."""
    dids, cnos, chunks = [], [], []
    for did, text in zip(
        batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
    ):
        for _, no, chunk in _doc_chunks(did, text):
            dids.append(did)
            cnos.append(no)
            chunks.append(chunk)
    return pa.table(
        {
            "doc_id": pa.array(dids, type=pa.int64()),
            "chunk_no": pa.array(cnos, type=pa.int64()),
            "chunk": pa.array(chunks, type=pa.binary()),
            "verdict": pa.array([False] * len(dids), type=pa.bool_()),
        },
        schema=_UNION_SCHEMA,
    )


def _verdict_rows(batch: pa.Table) -> pa.Table:
    n = batch.num_rows
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "chunk_no": batch.column("chunk_no"),
            "chunk": pa.nulls(n, pa.binary()),
            "verdict": pa.array([True] * n, pa.bool_()),
        },
        schema=_UNION_SCHEMA,
    )


def _cogroup_reassemble(t: pa.Table):
    """One doc_id partition holds every chunk row of its docs AND their
    loser verdicts; anti-join in-partition and reassemble."""
    import pandas as pd

    group = t.to_pandas()
    drops = set(
        zip(
            group.loc[group["verdict"], "doc_id"],
            group.loc[group["verdict"], "chunk_no"],
        )
    )
    data = group[~group["verdict"]].sort_values(["doc_id", "chunk_no"])
    rows = []
    for did, g in data.groupby("doc_id", sort=True):
        chunks = [bytes(c) for c in g["chunk"]]
        keep = [(did, no) not in drops for no in g["chunk_no"]]
        rows.append(_reassemble(int(did), chunks, keep))
    return pd.DataFrame(
        rows, columns=["doc_id", "n_chunks", "n_kept", "kept_frac", "kept_digest"]
    )


def cdc_dedup(
    docs_ds,
    num_partitions: int | None = None,
):
    """docs (doc_id, text) -> per-doc (doc_id, n_chunks, n_kept,
    kept_frac, kept_digest) under global keep-first CDC dedup."""
    import ray

    nparts = num_partitions or shuffle_partitions()

    keys = docs_ds.map_batches(_keys_batch, batch_format="pyarrow")
    losers = hash_reduce(keys, ["h1"], _losers_in_partition, nparts).materialize()
    n_losers = losers.count()

    if n_losers <= BROADCAST_MAX_LOSERS:
        if n_losers:
            loser_tbl = pa.concat_tables(
                losers.iter_batches(batch_format="pyarrow", batch_size=None)
            ).select(["doc_id", "chunk_no"])
        else:
            loser_tbl = pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "chunk_no": pa.array([], pa.int64()),
                }
            )
        losers_ref = ray.put(loser_tbl)
        return docs_ds.map_batches(
            _ApplyBroadcast,
            fn_constructor_args=(losers_ref,),
            batch_format="pyarrow",
            concurrency=(1, 8),
        )

    doc_rows = docs_ds.map_batches(_doc_rows, batch_format="pyarrow")
    verdict_rows = losers.map_batches(_verdict_rows, batch_format="pyarrow")
    return hash_reduce(
        doc_rows.union(verdict_rows), ["doc_id"], _cogroup_reassemble, nparts
    )


def cdc_reference(docs) -> "object":
    """Single-process replay of the WHOLE operator (same chunker, dict
    keep-first in (doc_id, chunk_no) scan order, same digests) — the
    ground truth for the cdc_parity gate.  Driver-side by design: runs
    on the small test corpus only."""
    import pandas as pd

    docs = docs.sort_values("doc_id").reset_index(drop=True)
    first: dict[bytes, tuple[int, int]] = {}
    per_doc: list[tuple[int, list[bytes]]] = []
    for did, text in zip(docs["doc_id"], docs["text"]):
        triples = _doc_chunks(int(did), text)
        if not triples:
            continue
        chunks = [c for _, _, c in triples]
        per_doc.append((int(did), chunks))
        for _, no, c in triples:
            d = hashlib.md5(c).digest()
            key = (int(did), no)
            if d not in first or key < first[d]:
                first[d] = key
    rows = []
    for did, chunks in per_doc:
        keep = [
            first[hashlib.md5(c).digest()] == (did, no)
            for no, c in enumerate(chunks)
        ]
        rows.append(_reassemble(did, chunks, keep))
    return pd.DataFrame(
        rows, columns=["doc_id", "n_chunks", "n_kept", "kept_frac", "kept_digest"]
    )


def q_cdc_dedup(sf_dir: str):
    """Query surface: global CDC dedup over the documents corpus,
    sorted by doc_id.  Bit-exact distributed-vs-reference equality
    (incl. survivor digests) is the cdc_parity row of approx_metrics."""
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return cdc_dedup(ds).sort("doc_id")
