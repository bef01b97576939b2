"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship KG pipeline on sf0.001.  ``queries()``
exposes one callable per implemented operator family (SURVEY.md §2 plus
the training-data extras); ``oracle_sql()`` gives the DuckDB-equivalent
SQL for every SQL-expressible query (identical column names, identical
rounding) — including the MinHash-LSH pipeline and its connected
components, recomputed end-to-end in DuckDB.  KG/NER queries are not
SQL-expressible — the driver records rows-only checks for those; their
real correctness gate is the golden-triple P/R test in
tests/test_pipeline_golden.py.

Ray is initialised by the driver BEFORE this module is imported: nothing
here calls ray.init()/ray.shutdown().
"""

from __future__ import annotations

import os
import tempfile
from collections.abc import Callable
from typing import Any

_DICTS = None


def _dicts():
    """Compile the synthetic ontology side tables once per process."""
    global _DICTS
    if _DICTS is None:
        from kazu_ray.ontology.compile import compile_dictionaries

        out = os.path.join(tempfile.gettempdir(), "kazu_ray_dicts")
        _DICTS = compile_dictionaries(out)
    return _DICTS


def _kg_edges(sf_dir: str):
    from kazu_ray.pipelines.kg import edges_pipeline
    from kazu_ray.sources.interleave import interleaved_docs

    return edges_pipeline(interleaved_docs(sf_dir), _dicts()).sort(
        ["subj", "pred", "obj"]
    )


def _kg_nodes(sf_dir: str):
    from kazu_ray.pipelines.kg import edges_pipeline
    from kazu_ray.stages.triples import nodes_from_edges

    from kazu_ray.sources.interleave import interleaved_docs

    edges = edges_pipeline(interleaved_docs(sf_dir), _dicts()).materialize()
    return nodes_from_edges(edges, _dicts().metadata_path)


def _kg_eval(sf_dir: str):
    """Triple P/R vs the golden oracle — the north-rule gate as a query."""
    import pandas as pd

    from kazu_ray.sources.interleave import golden_triples_table

    e = _kg_edges(sf_dir).to_pandas()
    golden = golden_triples_table(sf_dir).to_pandas()
    got = set(zip(e.subj, e.pred, e.obj))
    exp = set(zip(golden.subj, golden.pred, golden.obj))
    tp = len(got & exp)
    return pd.DataFrame(
        {
            "precision": [round(tp / max(1, len(got)), 6)],
            "recall": [round(tp / max(1, len(exp)), 6)],
            "n_edges": [len(got)],
            "n_golden": [len(exp)],
        }
    )


def _ner_entities(sf_dir: str):
    """Flattened final entity rows (the default step group: dictionary NER
    after the full doc-local cascade)."""
    import pyarrow as pa

    from kazu_ray.pipelines.config import PipelineConfig, build
    from kazu_ray.sources.interleave import interleaved_docs

    ann = build(interleaved_docs(sf_dir), _dicts(), PipelineConfig())

    def flatten(t: pa.Table) -> pa.Table:
        doc_ids, span_idx, match, ecls, ns, start, end, mapped = [], [], [], [], [], [], [], []
        for d, ents in zip(t.column("doc_id").to_pylist(), t.column("entities").to_pylist()):
            for e in ents:
                doc_ids.append(d)
                span_idx.append(e["span_idx"])
                match.append(e["match"])
                ecls.append(e["entity_class"])
                ns.append(e["namespace"])
                start.append(e["start"])
                end.append(e["end"])
                mapped.append(",".join(sorted({m["idx"] for m in e["mappings"]})))
        return pa.Table.from_pydict(
            {
                "doc_id": doc_ids,
                "span_idx": pa.array(span_idx, type=pa.int32()),
                "match": match,
                "entity_class": ecls,
                "namespace": ns,
                "start": pa.array(start, type=pa.int32()),
                "end": pa.array(end, type=pa.int32()),
                "mapping_ids": mapped,
            }
        )

    return ann.map_batches(flatten, batch_format="pyarrow").sort(
        ["doc_id", "span_idx", "start", "end", "entity_class"]
    )


def _transformer_eval(sf_dir: str):
    """P/R of the REAL-checkpoint transformer pipeline (numpy-BERT tiny
    checkpoint + TfIdfLinker + cascade) vs the frozen static golden
    fixture.  Fixture-based by design (the golden CSVs pin exact spans
    and groundings), so sf_dir is unused."""
    from kazu_ray.sources.transformer_golden import evaluate_transformer_golden

    return evaluate_transformer_golden(_dicts())


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001: canonical KG edges."""
    return _kg_edges("/root/testdata/sf0.001").to_pandas()


def _q_mutation_mentions(sf_dir: str):
    from kazu_ray.stages.mutation_ner import q_mutation_mentions

    return q_mutation_mentions(sf_dir)


def _q_chem_smiles(sf_dir: str):
    from kazu_ray.stages.opsin import q_chem_smiles

    return q_chem_smiles(sf_dir)


def _q_pattern_entities(sf_dir: str):
    from kazu_ray.stages.pattern_ner import q_pattern_entities

    return q_pattern_entities(sf_dir)


def _q_distill_logits(sf_dir: str):
    from kazu_ray.stages.distill import q_distill_logits

    return q_distill_logits(sf_dir)


def _q_cdc_dedup(sf_dir: str):
    from kazu_ray.extras.cdc import q_cdc_dedup

    return q_cdc_dedup(sf_dir)


def _q_frequent_pairs(sf_dir: str):
    from kazu_ray.extras.itemsets import q_frequent_pairs

    return q_frequent_pairs(sf_dir)


def _q_textfix(sf_dir: str):
    from kazu_ray.extras.textfix import q_textfix

    return q_textfix(sf_dir)


def _q_anchor_texts(sf_dir: str):
    from kazu_ray.extras.html_extract import q_anchor_texts

    return q_anchor_texts(sf_dir)


def _q_orders_ntile(sf_dir: str):
    from kazu_ray.extras.exact_quantiles import q_orders_ntile

    return q_orders_ntile(sf_dir)


def _q_events_anomaly(sf_dir: str):
    from kazu_ray.extras.windows import q_events_anomaly

    return q_events_anomaly(sf_dir)


def _q_name_matches(sf_dir: str):
    from kazu_ray.extras.linkage import q_name_matches

    return q_name_matches(sf_dir)


def _q_phrase_search(sf_dir: str):
    from kazu_ray.extras.phrase import q_phrase_search

    return q_phrase_search(sf_dir)


def _q_image_dhash(sf_dir: str):
    from kazu_ray.extras.imagehash import q_image_dhash

    return q_image_dhash(sf_dir)


def _q_constraint_audit(sf_dir: str):
    from kazu_ray.extras.audit import q_constraint_audit

    return q_constraint_audit(sf_dir)


def _q_incremental_agg(sf_dir: str):
    from kazu_ray.extras.incremental import q_incremental_agg

    return q_incremental_agg(sf_dir)


def _q_events_funnel(sf_dir: str):
    from kazu_ray.extras.funnel import q_events_funnel

    return q_events_funnel(sf_dir)


def _q_orders_mad(sf_dir: str):
    from kazu_ray.extras.exact_quantiles import q_orders_mad

    return q_orders_mad(sf_dir)


def _q_events_retention(sf_dir: str):
    from kazu_ray.extras.funnel import q_events_retention

    return q_events_retention(sf_dir)


def _q_source_ols(sf_dir: str):
    from kazu_ray.extras.regression import q_source_ols

    return q_source_ols(sf_dir)


def _q_events_coverage(sf_dir: str):
    from kazu_ray.extras.funnel import q_events_coverage

    return q_events_coverage(sf_dir)


def _q_source_mode(sf_dir: str):
    from kazu_ray.extras.text_analysis import q_source_mode

    return q_source_mode(sf_dir)


def _q_bool_retrieval(sf_dir: str):
    from kazu_ray.extras.phrase import q_bool_retrieval

    return q_bool_retrieval(sf_dir)


def _q_weighted_percentiles(sf_dir: str):
    from kazu_ray.extras.exact_quantiles import q_lineitem_weighted_percentiles

    return q_lineitem_weighted_percentiles(sf_dir)


def _q_url_hierarchy(sf_dir: str):
    from kazu_ray.extras.urls import q_url_hierarchy

    return q_url_hierarchy(sf_dir)


def _q_source_distinct_tokens(sf_dir: str):
    from kazu_ray.extras.text_analysis import q_source_distinct_tokens

    return q_source_distinct_tokens(sf_dir)


def _q_funnel_latency(sf_dir: str):
    from kazu_ray.extras.funnel import q_funnel_latency

    return q_funnel_latency(sf_dir)


def _q_zorder_stats(sf_dir: str):
    from kazu_ray.extras.zorder import q_zorder_stats

    return q_zorder_stats(sf_dir)


def _q_annotator_agreement(sf_dir: str):
    from kazu_ray.extras.agreement import q_annotator_agreement

    return q_annotator_agreement(sf_dir)


def _q_nb_classifier(sf_dir: str):
    from kazu_ray.extras.nb_text import q_nb_classifier

    return q_nb_classifier(sf_dir)


def _q_ab_test(sf_dir: str):
    from kazu_ray.extras.abtest import q_ab_test

    return q_ab_test(sf_dir)


def _q_setsim_pairs(sf_dir: str):
    from kazu_ray.extras.setsim import q_setsim_pairs

    return q_setsim_pairs(sf_dir)


def _q_dup_passages(sf_dir: str):
    from kazu_ray.extras.passages import q_dup_passages

    return q_dup_passages(sf_dir)


def _q_decontaminate(sf_dir: str):
    from kazu_ray.extras.passages import q_decontaminate

    return q_decontaminate(sf_dir)


def _q_quality_signals(sf_dir: str):
    from kazu_ray.extras.quality import q_quality_signals

    return q_quality_signals(sf_dir)


def _q_quality_filter(sf_dir: str):
    from kazu_ray.extras.quality import q_quality_filter

    return q_quality_filter(sf_dir)


def _q_rare_tokens(sf_dir: str):
    from kazu_ray.extras.quality import q_rare_tokens

    return q_rare_tokens(sf_dir)


def _q_lm_perplexity(sf_dir: str):
    from kazu_ray.extras.quality import q_lm_perplexity

    return q_lm_perplexity(sf_dir)


def queries() -> dict[str, Callable[[str], Any]]:
    return _ordered(_queries_unordered())


def _queries_unordered() -> dict[str, Callable[[str], Any]]:
    from kazu_ray.extras.dedup import (
        q_embedding_neardup,
        q_exact_dedup,
        q_jaccard_pairs,
        q_minhash_candidates,
        q_simhash,
    )
    from kazu_ray.extras.cluster import q_neardup_components
    from kazu_ray.extras.windows import (
        q_asof_join,
        q_events_sessions,
        q_events_sliding,
        q_range_join,
    )
    from kazu_ray.extras.multimodal import q_media_features, q_media_metadata, q_video_frames

    from kazu_ray.extras.similarity import (
        q_ann_topk,
        q_ivf_topk,
        q_label_centroids,
        q_pq_topk,
        q_standardize,
    )
    from kazu_ray.extras.sketches import q_price_quantiles
    from kazu_ray.extras.pii import q_pii_scan
    from kazu_ray.extras.metrics import q_approx_metrics, q_gates_failing
    from kazu_ray.extras.kmeans import q_kmeans_clusters, q_semdedup
    from kazu_ray.stages.punkt import q_punkt_sentences
    from kazu_ray.extras.dsir import q_dsir_sample
    from kazu_ray.extras.sketches import q_hll_distinct
    from kazu_ray.extras.collocations import q_pmi_collocations
    from kazu_ray.extras.pca import q_pca_project
    from kazu_ray.extras.bpe import q_bpe_train
    from kazu_ray.extras.unigram import q_unigram_token_count, q_unigram_train
    from kazu_ray.extras.graph import q_graph_hits, q_graph_khop, q_graph_triangles
    from kazu_ray.extras.kgembed import q_kg_embeddings
    from kazu_ray.extras.kn_lm import q_kn_perplexity
    from kazu_ray.extras.chunk_dedup import q_chunk_dedup
    from kazu_ray.extras.sampling import q_weighted_sample as _q_weighted_sample
    from kazu_ray.extras.quality import q_repetition_trim as _q_repetition_trim
    from kazu_ray.extras.profile import q_profile as _q_profile
    from kazu_ray.extras.sketches import (
        q_cms_registers,
        q_group_quantiles,
        q_hll_group_distinct,
    )
    from kazu_ray.extras.text_analysis import (
        q_bpe_token_count,
        q_doc_fingerprint,
        q_doc_token_stats,
        q_json_props,
        q_langid_counts,
        q_tfidf_keywords,
        q_token_topk,
    )
    from kazu_ray.extras.exact_quantiles import q_orders_percentiles
    from kazu_ray.extras.lrfilter import q_lr_quality_scores
    from kazu_ray.extras.urls import q_domain_cap, q_url_canonical
    from kazu_ray.extras.compress import q_compression_signals
    from kazu_ray.extras.html_extract import q_html_extract, q_html_links
    from kazu_ray.extras.sampling import q_source_mix
    from kazu_ray.relational import (
        q_customer_order_join,
        q_customer_running_total,
        q_distinct_flags,
        q_events_pivot,
        q_full_outer_join,
        q_events_hourly,
        q_lineitem_agg,
        q_lineitem_cube,
        q_lineitem_rollup,
        q_orders_rank_per_group,
        q_orders_topk,
        q_part_semi_join,
        q_part_size_hist,
        q_region_customer_counts,
        q_supplier_nation_balance,
    )

    return {
        # --- flagship KG pipeline (rows-only; P/R gate in kg_eval + pytest)
        "kg_edges": _kg_edges,
        "kg_nodes": _kg_nodes,
        "kg_eval": _kg_eval,
        "ner_entities": _ner_entities,
        # SETH-analogue regex mutation NER — SQL oracle runs the identical
        # RE2-safe pattern via regexp_extract_all (cross-engine parity)
        "mutation_mentions": _q_mutation_mentions,
        # (chem_smiles — OPSIN-analogue IUPAC→SMILES, not
        # SQL-expressible — moved past the 50-query budget in round 5:
        # its chem_exact_match_frac=1.0 gate stays driver-recorded via
        # approx_metrics, freeing the slot for an oracle-checked query)
        # SpacyNerStep-analogue token-pattern NER — oracle runs equivalent
        # RE2 regexes (IN set / bigram / greedy one-or-more quantifier)
        "pattern_entities": _q_pattern_entities,
        # Gopher/C4 quality heuristics — full SQL oracles incl. the
        # top-n-gram repetition character fractions
        "quality_signals": _q_quality_signals,
        "quality_filter": _q_quality_filter,
        # corpus-relative rare-token density (CCNet-style, integer space)
        "rare_tokens": _q_rare_tokens,
        # CCNet-style LM quality score: per-doc perplexity under a
        # bounded top-V add-one unigram LM trained on the corpus
        # (combiner-counts exchange -> bounded broadcast -> streaming
        # score pass); exact SQL oracle
        "lm_perplexity": _q_lm_perplexity,
        # cross-doc duplicated-passage fractions (Lee et al. 2022 style
        # substring dedup via k-gram exchange)
        "dup_passages": _q_dup_passages,
        # benchmark decontamination (broadcast blocklist, zero shuffle)
        "decontaminate": _q_decontaminate,
        # BPE pre-tokenizer piece counting (training-token budgeting)
        "bpe_token_count": q_bpe_token_count,
        # semi-structured: vectorized JSON field extraction + aggregate
        "json_props": q_json_props,
        # --- relational operator family (SQL oracles)
        "lineitem_agg": q_lineitem_agg,
        # grouping sets: one-pass ROLLUP via per-batch multi-set
        # partials + a single tiny merge groupby (exact oracle)
        "lineitem_rollup": q_lineitem_rollup,
        # GROUP BY CUBE: full 2^k grouping lattice, combiner-first
        "lineitem_cube": q_lineitem_cube,
        # pivot: per-user event-type counts widened in-batch (exact
        # oracle via COUNT(*) FILTER per type)
        "events_pivot": q_events_pivot,
        "orders_topk": q_orders_topk,
        "orders_rank_per_group": q_orders_rank_per_group,
        "events_hourly": q_events_hourly,
        "events_sessions": q_events_sessions,
        # (the whale-safe bucketed sessionization variant stays oracle-
        # equivalent via the sessions_equivalence gate in approx_metrics,
        # which asserts bucketed == simple on the FULL events table; its
        # query slot goes to lm_perplexity under the 50-query budget)
        "asof_join": q_asof_join,
        "range_join": q_range_join,
        "events_sliding": q_events_sliding,
        # (distinct_flags — a trivial DISTINCT whose pattern is already
        # oracle-covered by region_customer_counts/exact_dedup — moved
        # past the 50-query budget in round 5 to free a slot for the
        # oracle-checked URL-canonicalization family below; it keeps
        # its pytest oracle-parity test)
        "region_customer_counts": q_region_customer_counts,
        "customer_order_join": q_customer_order_join,
        "part_semi_join": q_part_semi_join,
        "supplier_nation_balance": q_supplier_nation_balance,
        # (part_size_hist — a trivial bucketed GROUP BY whose pattern is
        # already oracle-covered by events_hourly/region_customer_counts
        # — moved past the 50-query budget in round 5 to free a slot for
        # the oracle-checked HTML boilerplate-removal family below; it
        # keeps its pytest oracle-parity test)
        "customer_running_total": q_customer_running_total,
        # HTML main-content extraction (Boilerpipe-style block scoring
        # over rendered synthetic pages); the oracle is exact TEXT
        # RECOVERY — SELECT doc_id, text — so it encodes zero extraction
        # rules: any scoring mistake breaks the hash.
        "html_extract": q_html_extract,
        # --- text analysis (SQL oracles)
        "doc_token_stats": q_doc_token_stats,
        "doc_fingerprint": q_doc_fingerprint,
        "token_topk": q_token_topk,
        "langid_counts": q_langid_counts,
        # --- dedup family
        "exact_dedup": q_exact_dedup,
        # (jaccard_pairs — one of six oracle-checked dedup-family
        # queries — moved past the 50-query budget in round 5 to free a
        # slot for the URL family; its pytest oracle test remains)
        "minhash_candidates": q_minhash_candidates,  # exact oracle (full LSH recomputed in SQL)
        "simhash": q_simhash,  # exact oracle (md5-based word hash, see dedup.py)
        "embedding_neardup": q_embedding_neardup,
        "neardup_components": q_neardup_components,  # exact oracle (LSH + recursive-CTE closure)
        # --- similarity search
        "ann_topk": q_ann_topk,
        # (ivf_topk + price_quantiles — approximate by design — moved
        # past the 50-query budget in round 5: their ivf_recall and
        # quantile-error gates stay driver-recorded via approx_metrics,
        # freeing two slots for oracle-checked queries; q_lsh_topk
        # likewise stays a library operator behind lsh_recall)
        "pii_scan": q_pii_scan,
        # --- URL curation family (CCNet/RefinedWeb web-crawl staples;
        # round 5, took the distinct_flags + jaccard_pairs slots):
        # canonicalization (fragment/utm/www/case/trailing-slash rules)
        # with exact string parity, and the per-registered-domain quota
        # via the keep-first-K combiner — both exact SQL oracles.
        "url_canonical": q_url_canonical,
        "domain_cap": q_domain_cap,
        "label_centroids": q_label_centroids,
        # temperature-scaled source mixture weights (GPT-3-style data
        # mixing; combiner counts, driver-bounded by distinct sources,
        # exact oracle incl. pow/round)
        "source_mix": q_source_mix,
        # per-doc top-k TF-IDF keywords (exact oracle incl. ln-scores:
        # same libm, ties only at equal (tf, df), half-away rounding)
        "tfidf_keywords": q_tfidf_keywords,
        # EXACT distributed order statistics (histogram bisection, no
        # global sort) — in-budget with a PERCENTILE_DISC oracle; took
        # media_metadata's slot once the media_* decode gates became
        # driver-recorded approx_metrics rows (media_lossless_exact_frac
        # + jpeg/video error envelopes vs generator source arrays),
        # which is stronger codec evidence than the avg-dims rows check.
        "orders_percentiles": q_orders_percentiles,
        # the failing rows of the consolidated gate surface, pinned to
        # ZERO rows by an explicit SQL oracle — a broken gate flips
        # rows_match in the driver file, not just pytest.  Shares
        # approx_metrics' memo so the gates run once per process.
        "gates_failing": q_gates_failing,
        # --- quality-metric queries: the recall / equivalence / parity
        # gates behind the approximate and non-SQL-expressible operators.
        # approx_metrics consolidates 63 gate rows (MinHash/IVF/LSH/PQ
        # recall, bucketed-session + CC equivalence, quantile sketch
        # error, embedding-eval P/R on the real-weights checkpoint,
        # IUPAC→SMILES parity, BM25 / sampling+epoch-mix / snapshot-diff
        # / sequence-packing / PageRank / triangle / k-hop / TransE /
        # Kneser-Ney / DSIR / HLL / CMS / PCA / BPE / profile /
        # full-outer-join / standardize / repetition-trim cross-engine
        # parities, Bloom FPR, distributed k-means equivalence, SemDeDup
        # invariants, Punkt boundary F1, distillation student P/R, LR
        # quality-classifier fit parity, and the media decode gates vs
        # generator source arrays) into one query so every gate is
        # driver-recorded each round within the 50-query budget.
        "transformer_eval": _transformer_eval,
        "approx_metrics": q_approx_metrics,
        # Past the driver's 50-query budget: the multimodal data
        # surfaces (moved in round 5 to make room for gates_failing and
        # the oracle-checked tfidf_keywords / orders_percentiles) —
        # decode correctness stays driver-recorded via the media_*
        # rows of approx_metrics (lossless bit-exactness + lossy error
        # envelopes vs the generators' source arrays, all six container
        # formats), and byte-level pytest-gated (test_multimodal,
        # test_jpeg, test_gif, test_avi).
        "media_metadata": q_media_metadata,
        "video_frames": q_video_frames,
        "media_features": q_media_features,
        # image perceptual-hash near-dup (real PNG/JPEG decodes in the
        # actor pool); correctness driver-recorded via the
        # imagehash_path_equal / imagehash_pairs_exact /
        # imagehash_planted_recall rows of approx_metrics
        "image_dhash": _q_image_dhash,
        # Past the driver's 50-query budget (moved in round 5, gates
        # stay driver-recorded via approx_metrics rows — see comments at
        # their former in-budget slots above):
        "chem_smiles": _q_chem_smiles,
        "ivf_topk": q_ivf_topk,
        "price_quantiles": q_price_quantiles,
        # GPT-3-style LR quality classifier: distributed full-batch GD
        # over Gopher-signal features imitating the rule filter; its
        # lr_fit_max_werr / lr_agreement / lr_train_accuracy gates are
        # driver-recorded via approx_metrics.
        "lr_quality_scores": q_lr_quality_scores,
        # Past the driver's 50-query budget: data surfaces for the
        # clustering operators; their correctness gates
        # (kmeans_assign_equal_frac, kmeans_centroid_max_err,
        # semdedup_invariants) are driver-recorded via approx_metrics.
        "kmeans_clusters": q_kmeans_clusters,
        "semdedup": q_semdedup,
        # data surface for the unsupervised Punkt sentencizer; its
        # boundary-F1 gate is the punkt_boundary_f1 row of
        # approx_metrics.
        "punkt_sentences": q_punkt_sentences,
        # DSIR importance resampling (Xie et al. 2023); its full
        # fit+score+select pipeline is checked bit-exact against a
        # single DuckDB query by the dsir_parity row of approx_metrics.
        "dsir_sample": q_dsir_sample,
        # HyperLogLog distinct-token estimate; register-level SQL parity
        # + error envelope are the hll_* rows of approx_metrics.
        "hll_distinct": q_hll_distinct,
        # PMI collocations; full-set exact SQL parity is the pmi_parity
        # row of approx_metrics.
        "pmi_collocations": q_pmi_collocations,
        # Distributed PCA over embeddings; covariance SQL parity +
        # driver-path equivalence are the pca_* rows of approx_metrics.
        "pca_project": q_pca_project,
        # Distributed BPE training; fit/apply equivalence vs the
        # single-process reference is the bpe_* rows of approx_metrics.
        "bpe_train": q_bpe_train,
        # Distributed unigram-LM (SentencePiece-style) tokenizer
        # training; fit/apply equivalence vs the single-process
        # reference is the unigram_* rows of approx_metrics.
        "unigram_train": q_unigram_train,
        # Distributed Viterbi-encode apply (bench surface; bounded fit).
        "unigram_token_count": q_unigram_token_count,
        # Per-node triangle counts / clustering coefficient over the
        # derived co-occurrence graph; exact integer parity vs DuckDB's
        # closed-wedge self-join is the triangles_parity row of
        # approx_metrics.
        "graph_triangles": q_graph_triangles,
        # 3-hop seed neighborhoods (BSP frontier expansion); exact
        # parity vs DuckDB's bounded recursive CTE is the khop_parity
        # row of approx_metrics.
        "graph_khop": q_graph_khop,
        # HITS hubs/authorities (L2 power iteration, sparse dataset-
        # native path); cross-engine parity vs the DuckDB replay is the
        # hits_parity row of approx_metrics.
        "graph_hits": q_graph_hits,
        # TransE KG embeddings trained over the derived relational
        # triple table (broadcast-params epochs, sparse gradient
        # partials); distributed-vs-reference equivalence and filtered
        # link-prediction quality are the transe_* rows of
        # approx_metrics.
        "kg_embeddings": q_kg_embeddings,
        # interpolated Kneser-Ney bigram LM perplexity (CCNet-grade
        # quality score, bigram upgrade of lm_perplexity); the full
        # pipeline is recomputed by DuckDB and matches exactly — the
        # kn_parity row of approx_metrics.
        "kn_perplexity": q_kn_perplexity,
        # C4/Dolma-style global keep-first chunk dedup (the destructive
        # counterpart to dup_passages' scoring); full-pipeline exact SQL
        # parity incl. per-doc survivor digests is the chunk_dedup_parity
        # row of approx_metrics.
        "chunk_dedup": q_chunk_dedup,
        # Count-Min sketch register table over the documents token
        # stream (mergeable frequency sketch; additive combiner tree,
        # <= CMS_D*CMS_W rows cross the exchange at any corpus size);
        # bit-exact register SQL parity + point-query bounds are the
        # cms_* rows of approx_metrics.
        "cms_registers": q_cms_registers,
        # Groupwise HLL: distinct-token estimate per source (one
        # streaming pass + a hash(key)-partitioned register MAX-merge,
        # <= groups x 256 one-byte registers of cluster-wide state);
        # per-group register SQL parity + error envelope are the
        # hll_group_* rows of approx_metrics.
        "hll_group_distinct": q_hll_group_distinct,
        # Product-quantization ANN (Jegou et al. 2011): 8-bit per-
        # subspace codes (32x compression), broadcast codebooks, ADC
        # lookup-table shortlist + exact re-rank on the bounded
        # shortlist; recall vs the exact oracle + distributed-vs-
        # reference path equivalence are the pq_* rows of
        # approx_metrics.
        "pq_topk": q_pq_topk,
        # Efraimidis-Spirakis A-ES weighted sampling without
        # replacement (deterministic md5 uniforms, zero shuffle:
        # per-block partial top-n + bounded merge); selected-set SQL
        # parity is the wsample_parity row of approx_metrics.
        "weighted_sample": _q_weighted_sample,
        # groupwise quantile sketch (per-group p50/p90/p99; centroid
        # rows bounded by k per group, group-keyed exchange); per-group
        # accuracy vs exact is the group_quantile_max_rel_err row of
        # approx_metrics.
        "group_quantiles": q_group_quantiles,
        # partition-wise FULL OUTER hash join (kazu_ray/joins.py, both
        # null directions real via the sparse order log); exact frame
        # parity incl. null placement is the fo_join_parity row of
        # approx_metrics.
        "full_outer_join": q_full_outer_join,
        # per-dimension embedding standardization (z-score): fixed-size
        # per-block moment partials -> broadcast mean/std -> one
        # streaming apply pass; exact 6dp SQL parity on stats + sample
        # z-scores is the standardize_parity row of approx_metrics.
        "standardize": q_standardize,
        # within-doc consecutive-repetition trim (zero shuffle, one
        # vectorized pass); exact count+digest SQL parity via LAG is
        # the repetition_trim_parity row of approx_metrics.
        "repetition_trim": _q_repetition_trim,
        # single-pass column profiling (Deequ/TFDV-style: n, nulls,
        # typed min/max, HLL distinct per column; fixed-size partials,
        # columns x 4KB merged state at any table size); exact SQL
        # parity incl. register replay is the profile_parity row of
        # approx_metrics.
        "profile": _q_profile,
        # teacher->student distillation (TinyBERT final-layer soft-CE,
        # reference kazu/distillation/models.py): the materialized
        # soft-label dataset (teacher logits + frozen student features
        # per corpus word).  The training-path bit-exactness and the
        # student checkpoint's full-pipeline golden P/R are the
        # distill_* rows of approx_metrics.
        "distill_logits": _q_distill_logits,
        # moved past-budget in round 5 (slots went to the URL family);
        # both keep their pytest SQL-parity tests
        "distinct_flags": q_distinct_flags,
        "jaccard_pairs": q_jaccard_pairs,
        "part_size_hist": q_part_size_hist,
        # outlink census over the rendered pages (link-graph
        # construction); past-budget with a pytest SQL-parity test
        "html_links": q_html_links,
        # compression-ratio / byte-entropy quality signals — not
        # SQL-expressible (no zlib in DuckDB); bit-exact
        # distributed-vs-reference parity is the compression_parity row
        # of approx_metrics
        "compression_signals": q_compression_signals,
        # content-defined-chunking (FastCDC-style) global keep-first
        # dedup — byte-level, edit-robust counterpart of chunk_dedup;
        # hash-only classification exchange, rolling hash not
        # SQL-expressible, so parity is the bit-exact reference-replay
        # cdc_parity row of approx_metrics
        "cdc_dedup": _q_cdc_dedup,
        # SON two-phase frequent token pairs (exact; support-bounded
        # candidate exchange + broadcast phase-2 count); full DuckDB
        # oracle below, pytest-parity via test_oracle_parity
        "frequent_pairs": _q_frequent_pairs,
        # ftfy-style mojibake repair + NFKC (encoding round-trips are
        # not SQL-expressible); the planted-corruption ground-truth
        # recovery check is the textfix_recovery row of approx_metrics
        "textfix": _q_textfix,
        # anchor-text corpus construction (per-href distinct linking
        # docs + occurrence count + sorted distinct anchor texts);
        # combiner-first so chrome hrefs can't hot-spot; full DuckDB
        # oracle, pytest-parity via test_oracle_parity
        "anchor_texts": _q_anchor_texts,
        # exact distributed NTILE (histogram-bisection boundaries +
        # tie-resolution pass + broadcast assignment, no global sort);
        # exact SQL window-function parity via test_oracle_parity
        "orders_ntile": _q_orders_ntile,
        # per-user rolling z-score anomaly flags (integer-exact z-test,
        # no float boundary flips); exact SQL window parity
        "events_anomaly": _q_events_anomaly,
        # FastSS deletion-neighborhood similarity self-join (edit
        # distance 1 without a cross join); exact DuckDB levenshtein
        # parity via test_oracle_parity
        "name_matches": _q_name_matches,
        # positional phrase search (posting-list intersection, zero
        # shuffle — docs are row-local); exact SQL position-join parity
        "phrase_search": _q_phrase_search,
        # Deequ-style constraint audit (FK/range/not-null, size-routed
        # broadcast or partitioned anti-join); exact SQL parity
        "constraint_audit": _q_constraint_audit,
        # incremental aggregate maintenance (signed delta merge of the
        # token-count state, never rescans the base); exact parity vs
        # a direct recompute over the post-delta doc set
        "incremental_agg": _q_incremental_agg,
        # ordered funnel conversion (strict-after step semantics,
        # integer-timestamp comparisons — no tie seam); exact SQL
        # parity via the nested-MIN oracle
        "events_funnel": _q_events_funnel,
        # exact median absolute deviation (two order-stat passes, the
        # second over the in-block |x - med| column); exact SQL parity
        "orders_mad": _q_orders_mad,
        # cohort retention matrix (integer week arithmetic, additive
        # per-user distinct-week partials); exact SQL parity
        "events_retention": _q_events_retention,
        # grouped exact OLS from integer moment partials (bit-exact
        # slope/intercept: identical float tree over exact int sums)
        "source_ols": _q_source_ols,
        # interval-union coverage (gaps-and-islands sweep, integer
        # microseconds); exact SQL window-function parity
        "events_coverage": _q_events_coverage,
        # group-wise MODE with deterministic tie-break; exact SQL parity
        "source_mode": _q_source_mode,
        # conjunctive boolean retrieval (zero-shuffle AND queries);
        # exact SQL parity
        "bool_retrieval": _q_bool_retrieval,
        # exact weighted percentiles (integer-inequality thresholds,
        # weighted histogram bisection); exact SQL parity
        "weighted_percentiles": _q_weighted_percentiles,
        # URL hierarchy rollup (per-prefix doc counts, level-vectorised
        # prefix expansion over the canonicalizer); exact SQL parity
        "url_hierarchy": _q_url_hierarchy,
        # EXACT per-group distinct counts (the exact counterpart of
        # hll_group_distinct); exact SQL parity
        "source_distinct_tokens": _q_source_distinct_tokens,
        # median step-to-step conversion latency (funnel x exact
        # order statistics); exact SQL parity
        "funnel_latency": _q_funnel_latency,
        # Z-order/Morton layout clustering stats (data-layout op for
        # min/max scan pruning); exact DuckDB oracle below
        "zorder_stats": _q_zorder_stats,
        # Cohen's kappa inter-annotator agreement (Label Studio
        # companion); exact DuckDB oracle below
        "annotator_agreement": _q_annotator_agreement,
        # supervised Naive-Bayes text classifier (trained on the
        # source label): the FULL fit+classify path replays as one
        # DuckDB statement — exact oracle below; train accuracy is
        # additionally gated in approx_metrics (nb_train_accuracy)
        "nb_classifier": _q_nb_classifier,
        # two-proportion z-test experiment readout over events;
        # exact DuckDB oracle below
        "ab_test": _q_ab_test,
        # prefix-filtered EXACT shingle-Jaccard self-join over the
        # whole corpus (PPJoin-lite); exact DuckDB oracle below
        "setsim_pairs": _q_setsim_pairs,
    }


# The driver records the FIRST 50 queries() entries in CORRECTNESS_r{N}.
# This list pins that window deliberately: the 6 essential rows-only
# surfaces (flagship KG outputs + the transformer golden eval + the
# consolidated 68-row gate table) followed by 44 DuckDB-oracle-checked
# queries — the maximum oracle density the budget allows.  Everything
# past the window stays registered, pytest-oracle-checked
# (test_oracle_parity covers ALL oracle_sql entries) and/or gated
# through approx_metrics rows; tests/test_query_budget.py pins this
# composition so dict-order drift can't silently evict a gate again.
RECORDED_50 = (
    # rows-only essentials (6)
    "kg_edges", "kg_nodes", "kg_eval", "ner_entities",
    "transformer_eval", "approx_metrics",
    # oracle-pinned gate view (zero rows when every gate passes)
    "gates_failing",
    # oracle-checked core (r04 continuity)
    "mutation_mentions", "pattern_entities", "quality_signals",
    "quality_filter", "rare_tokens", "lm_perplexity", "dup_passages",
    "decontaminate", "bpe_token_count", "lineitem_agg",
    "orders_rank_per_group", "events_sessions", "events_sliding",
    "asof_join", "range_join", "incremental_agg", "part_semi_join",
    "doc_token_stats", "token_topk", "exact_dedup",
    "minhash_candidates", "simhash", "embedding_neardup",
    "neardup_components", "ann_topk", "pii_scan", "label_centroids",
    # round-5 oracle-checked additions
    "lineitem_rollup", "lineitem_cube", "events_pivot", "source_mix",
    "orders_percentiles", "orders_ntile", "tfidf_keywords",
    "url_canonical", "domain_cap", "html_extract", "anchor_texts",
    "frequent_pairs", "events_anomaly", "name_matches",
    "phrase_search", "constraint_audit",
)


def _ordered(d: dict) -> dict:
    out = {name: d[name] for name in RECORDED_50}
    out.update({k: v for k, v in d.items() if k not in out})
    return out


_STOPLIST_SQL = "('the','and','of','a','to','in','is')"


def oracle_sql() -> dict[str, str]:
    from kazu_ray.extras.passages import (
        decontaminate_oracle_sql,
        dup_passages_oracle_sql,
    )
    from kazu_ray.extras.similarity import label_centroids_oracle_sql
    from kazu_ray.extras.windows import (
        events_anomaly_oracle_sql,
        events_sliding_oracle_sql,
    )
    from kazu_ray.extras.text_analysis import (
        bpe_token_count_oracle_sql,
        json_props_oracle_sql,
        source_distinct_tokens_oracle_sql,
        source_mode_oracle_sql,
        tfidf_keywords_oracle_sql,
    )
    from kazu_ray.extras.quality import (
        lm_perplexity_oracle_sql,
        quality_filter_oracle_sql,
        quality_signals_oracle_sql,
        rare_tokens_oracle_sql,
    )
    from kazu_ray.stages.mutation_ner import mutation_oracle_sql
    from kazu_ray.stages.pattern_ner import pattern_oracle_sql
    from kazu_ray.extras.pii import pii_scan_oracle_sql
    from kazu_ray.extras.dedup import minhash_oracle_sql, simhash_oracle_sql
    from kazu_ray.extras.cluster import neardup_components_oracle_sql

    from kazu_ray.extras.exact_quantiles import (
        lineitem_weighted_percentiles_oracle_sql,
        orders_mad_oracle_sql,
        orders_ntile_oracle_sql,
        orders_percentiles_oracle_sql,
    )
    from kazu_ray.extras.itemsets import frequent_pairs_oracle_sql
    from kazu_ray.extras.linkage import name_matches_oracle_sql
    from kazu_ray.extras.phrase import (
        bool_retrieval_oracle_sql,
        phrase_search_oracle_sql,
    )
    from kazu_ray.extras.audit import constraint_audit_oracle_sql
    from kazu_ray.extras.zorder import zorder_oracle_sql
    from kazu_ray.extras.agreement import agreement_oracle_sql
    from kazu_ray.extras.nb_text import nb_classifier_oracle_sql
    from kazu_ray.extras.abtest import ab_test_oracle_sql
    from kazu_ray.extras.setsim import setsim_oracle_sql
    from kazu_ray.extras.incremental import incremental_agg_oracle_sql
    from kazu_ray.extras.regression import source_ols_oracle_sql
    from kazu_ray.extras.funnel import (
        events_coverage_oracle_sql,
        events_funnel_oracle_sql,
        events_retention_oracle_sql,
        funnel_latency_oracle_sql,
    )
    from kazu_ray.extras.urls import (
        domain_cap_oracle_sql,
        url_canonical_oracle_sql,
        url_hierarchy_oracle_sql,
    )
    from kazu_ray.extras.html_extract import (
        anchor_texts_oracle_sql,
        html_extract_oracle_sql,
        html_links_oracle_sql,
    )
    from kazu_ray.extras.metrics import gates_failing_oracle_sql
    from kazu_ray.extras.sampling import source_mix_oracle_sql
    from kazu_ray.relational import (
        events_pivot_oracle_sql,
        lineitem_cube_oracle_sql,
        lineitem_rollup_oracle_sql,
    )

    return {
        # every quality gate passes -> zero failing rows, pinned by SQL
        "gates_failing": gates_failing_oracle_sql(),
        "lineitem_rollup": lineitem_rollup_oracle_sql(),
        "lineitem_cube": lineitem_cube_oracle_sql(),
        "events_pivot": events_pivot_oracle_sql(),
        "source_mix": source_mix_oracle_sql(),
        "orders_percentiles": orders_percentiles_oracle_sql(),
        "tfidf_keywords": tfidf_keywords_oracle_sql(),
        "url_canonical": url_canonical_oracle_sql(),
        "domain_cap": domain_cap_oracle_sql(),
        "html_extract": html_extract_oracle_sql(),
        "html_links": html_links_oracle_sql(),
        "frequent_pairs": frequent_pairs_oracle_sql(),
        "anchor_texts": anchor_texts_oracle_sql(),
        "orders_ntile": orders_ntile_oracle_sql(),
        "events_anomaly": events_anomaly_oracle_sql(),
        "name_matches": name_matches_oracle_sql(),
        "phrase_search": phrase_search_oracle_sql(),
        "constraint_audit": constraint_audit_oracle_sql(),
        "incremental_agg": incremental_agg_oracle_sql(),
        "events_funnel": events_funnel_oracle_sql(),
        "events_retention": events_retention_oracle_sql(),
        "source_ols": source_ols_oracle_sql(),
        "events_coverage": events_coverage_oracle_sql(),
        "source_mode": source_mode_oracle_sql(),
        "bool_retrieval": bool_retrieval_oracle_sql(),
        "weighted_percentiles": lineitem_weighted_percentiles_oracle_sql(),
        "url_hierarchy": url_hierarchy_oracle_sql(),
        "source_distinct_tokens": source_distinct_tokens_oracle_sql(),
        "funnel_latency": funnel_latency_oracle_sql(),
        "zorder_stats": zorder_oracle_sql(),
        "annotator_agreement": agreement_oracle_sql(),
        "nb_classifier": nb_classifier_oracle_sql(),
        "ab_test": ab_test_oracle_sql(),
        "setsim_pairs": setsim_oracle_sql(),
        "orders_mad": orders_mad_oracle_sql(),
        "simhash": simhash_oracle_sql(),
        "minhash_candidates": minhash_oracle_sql(),
        "neardup_components": neardup_components_oracle_sql(),
        "mutation_mentions": mutation_oracle_sql(),
        "pattern_entities": pattern_oracle_sql(),
        "quality_signals": quality_signals_oracle_sql(),
        "quality_filter": quality_filter_oracle_sql(),
        "rare_tokens": rare_tokens_oracle_sql(),
        "lm_perplexity": lm_perplexity_oracle_sql(),
        "dup_passages": dup_passages_oracle_sql(),
        "decontaminate": decontaminate_oracle_sql(),
        "bpe_token_count": bpe_token_count_oracle_sql(),
        "json_props": json_props_oracle_sql(),
        "pii_scan": pii_scan_oracle_sql(),
        "lineitem_agg": """
            SELECT l_returnflag, l_linestatus,
                   ROUND(SUM(l_quantity), 2) AS sum_qty,
                   ROUND(SUM(l_extendedprice * (1 - l_discount)), 2) AS sum_revenue,
                   ROUND(AVG(l_discount), 4) AS avg_disc,
                   COUNT(*) AS n_rows
            FROM lineitem
            WHERE l_shipdate <= TIMESTAMP '1998-09-02'
            GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "orders_topk": """
            SELECT l_orderkey,
                   ROUND(SUM(l_extendedprice * (1 - l_discount)), 2) AS revenue
            FROM lineitem
            GROUP BY 1
            ORDER BY SUM(l_extendedprice * (1 - l_discount)) DESC, l_orderkey
            LIMIT 10
        """,
        "events_hourly": """
            SELECT event_type,
                   CAST(epoch_us(ts) // 3600000000 AS BIGINT) AS hour_bucket,
                   COUNT(*) AS n_events,
                   ROUND(SUM(value), 3) AS sum_value
            FROM events GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "distinct_flags": """
            SELECT l_returnflag, l_linestatus, COUNT(*) AS n
            FROM lineitem GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "events_sessions": """
            WITH e AS (SELECT user_id, epoch_us(ts) AS us, value FROM events),
            s AS (
              SELECT *, CASE WHEN LAG(us) OVER w IS NULL
                               OR us - LAG(us) OVER w > 1800000000
                          THEN 1 ELSE 0 END AS brk
              FROM e WINDOW w AS (PARTITION BY user_id ORDER BY us)
            ), t AS (
              SELECT *, SUM(brk) OVER (PARTITION BY user_id ORDER BY us
                                       ROWS UNBOUNDED PRECEDING) AS sid
              FROM s
            )
            SELECT user_id, CAST(MIN(us) AS BIGINT) AS session_start_us,
                   COUNT(*) AS n_events, ROUND(SUM(value), 3) AS sum_value
            FROM t GROUP BY user_id, sid ORDER BY user_id, session_start_us
        """,
        "asof_join": """
            SELECT p.event_id AS purchase_id, p.user_id,
                   COALESCE(v.event_id, -1) AS view_id
            FROM (SELECT * FROM events WHERE event_type = 'purchase') p
            ASOF LEFT JOIN (SELECT * FROM events WHERE event_type = 'view') v
              ON p.user_id = v.user_id AND p.ts >= v.ts
            ORDER BY p.user_id, purchase_id
        """,
        "events_sliding": events_sliding_oracle_sql(),
        "label_centroids": label_centroids_oracle_sql(),
        "orders_rank_per_group": """
            SELECT o_orderpriority, CAST(rank AS BIGINT) AS rank,
                   o_orderkey, o_totalprice FROM (
              SELECT o_orderpriority, o_orderkey, o_totalprice,
                     ROW_NUMBER() OVER (PARTITION BY o_orderpriority
                       ORDER BY o_totalprice DESC, o_orderkey) AS rank
              FROM orders) t WHERE rank <= 3
            ORDER BY o_orderpriority, rank
        """,
        "range_join": """
            SELECT e.event_id, CAST(COUNT(b.event_id) AS BIGINT) AS n_nearby
            FROM events e
            LEFT JOIN events b
              ON b.ts BETWEEN e.ts - INTERVAL 60 SECOND
                          AND e.ts + INTERVAL 60 SECOND
             AND b.event_id != e.event_id
            WHERE e.event_type = 'error'
            GROUP BY e.event_id ORDER BY e.event_id
        """,
        "region_customer_counts": """
            SELECT r.r_name AS region_name, COUNT(*) AS n_customers
            FROM customer c
            JOIN nation n ON c.c_nationkey = n.n_nationkey
            JOIN region r ON n.n_regionkey = r.r_regionkey
            GROUP BY 1 ORDER BY 1
        """,
        "customer_order_join": """
            SELECT c.c_mktsegment,
                   COUNT(*) AS n_orders,
                   ROUND(SUM(o.o_totalprice), 2) AS total_price
            FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
            GROUP BY 1 ORDER BY 1
        """,
        "part_semi_join": """
            SELECT p.p_brand, COUNT(*) AS n_items
            FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey
            WHERE p.p_type LIKE '%PROMO%'
            GROUP BY 1 ORDER BY 1
        """,
        "supplier_nation_balance": """
            SELECT n.n_name, ROUND(AVG(s.s_acctbal), 2) AS avg_balance,
                   COUNT(*) AS n_suppliers
            FROM supplier s JOIN nation n ON s.s_nationkey = n.n_nationkey
            GROUP BY 1 ORDER BY 1
        """,
        "part_size_hist": """
            SELECT CAST(FLOOR(p_size / 10.0) AS BIGINT) AS size_bucket,
                   COUNT(*) AS n_parts
            FROM part GROUP BY 1 ORDER BY 1
        """,
        "customer_running_total": """
            SELECT o_custkey, o_orderkey,
                   ROUND(SUM(o_totalprice) OVER (
                       PARTITION BY o_custkey
                       ORDER BY o_orderdate, o_orderkey
                       ROWS UNBOUNDED PRECEDING), 2) AS running_total
            FROM orders ORDER BY o_custkey, o_orderkey
        """,
        "doc_token_stats": f"""
            SELECT doc_id,
                   CAST(len(regexp_extract_all(text, '[A-Za-z0-9]+')) AS BIGINT) AS n_tokens,
                   CAST(length(text) AS BIGINT) AS n_chars,
                   CAST(len(list_filter(regexp_extract_all(lower(text), '[a-z0-9]+'),
                                        w -> w IN {_STOPLIST_SQL})) AS DOUBLE)
                       / GREATEST(len(regexp_extract_all(text, '[A-Za-z0-9]+')), 1) AS stop_ratio
            FROM documents ORDER BY doc_id
        """,
        "doc_fingerprint": """
            SELECT doc_id, md5(text) AS fp FROM documents ORDER BY doc_id
        """,
        "token_topk": """
            SELECT token, COUNT(*) AS n FROM (
                SELECT unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS token
                FROM documents
            ) GROUP BY 1 ORDER BY n DESC, token LIMIT 20
        """,
        "langid_counts": """
            WITH t AS (
              SELECT doc_id,
                     list_distinct(regexp_extract_all(lower(text), '[a-z0-9]+')) AS ws
              FROM documents
            ), c AS (
              SELECT doc_id,
                len(list_filter(ws, w -> w IN ('der','die','und','das','nicht','ist','ein'))) AS c_de,
                len(list_filter(ws, w -> w IN ('the','and','of','to','is','in','that'))) AS c_en,
                len(list_filter(ws, w -> w IN ('el','la','de','que','y','los','una'))) AS c_es,
                len(list_filter(ws, w -> w IN ('le','la','les','des','est','une','dans'))) AS c_fr
              FROM t
            )
            SELECT pred_lang, COUNT(*) AS n_docs FROM (
              SELECT CASE
                WHEN GREATEST(c_de, c_en, c_es, c_fr) = 0 THEN 'und'
                WHEN c_de >= c_en AND c_de >= c_es AND c_de >= c_fr THEN 'de'
                WHEN c_en >= c_es AND c_en >= c_fr THEN 'en'
                WHEN c_es >= c_fr THEN 'es'
                ELSE 'fr' END AS pred_lang
              FROM c
            ) GROUP BY 1 ORDER BY 1
        """,
        "exact_dedup": """
            SELECT MIN(doc_id) AS doc_id FROM documents
            GROUP BY md5(text) ORDER BY doc_id
        """,
        "jaccard_pairs": """
            WITH w AS (
              SELECT doc_id,
                     list_distinct(regexp_extract_all(lower(text), '[A-Za-z0-9]+')) AS ws
              FROM documents WHERE doc_id < 120
            )
            SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                   CAST(len(list_intersect(a.ws, b.ws)) AS DOUBLE)
                       / len(list_distinct(a.ws || b.ws)) AS jaccard
            FROM w a JOIN w b ON a.doc_id < b.doc_id
            WHERE CAST(len(list_intersect(a.ws, b.ws)) AS DOUBLE)
                      / len(list_distinct(a.ws || b.ws)) >= 0.8
            ORDER BY 1, 2
        """,
        "ann_topk": """
            WITH q AS (
              SELECT vec_id AS query_id, embedding AS qe
              FROM embeddings ORDER BY vec_id LIMIT 10
            )
            SELECT query_id, vec_id, ROUND(cos, 4) AS cosine FROM (
              SELECT q.query_id, e.vec_id,
                     list_cosine_similarity(CAST(q.qe AS DOUBLE[]),
                                            CAST(e.embedding AS DOUBLE[])) AS cos,
                     ROW_NUMBER() OVER (PARTITION BY q.query_id
                                        ORDER BY cos DESC, e.vec_id) AS rn
              FROM q CROSS JOIN embeddings e
              WHERE e.vec_id <> q.query_id
            ) WHERE rn <= 5 ORDER BY query_id, cosine DESC, vec_id
        """,
        "embedding_neardup": """
            SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
                   ROUND(list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                                CAST(b.embedding AS DOUBLE[])), 4) AS cosine
            FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
            WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                         CAST(b.embedding AS DOUBLE[])) >= 0.35
            ORDER BY 1, 2
        """,
    }
