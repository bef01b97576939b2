"""Dictionary-compile job: the groupby(term_norm) shuffle and
EquivalentIdSet clustering semantics (reference base.py:846-997)."""

from kazu_ray.state.side_tables import load_match_table, load_metadata, load_synonyms


def test_compile_outputs(compiled_dicts):
    syns = load_synonyms(compiled_dicts.synonyms_path)
    meta = load_metadata(compiled_dicts.metadata_path)

    # p27 merges three gene ids under one term_norm, each its own id set
    # (dissimilar default labels, symbolic synonym -> RESOLVED_BY_SIMILARITY)
    rec = syns[("OT_TARGET", "P 27")]
    assert rec.is_ambiguous
    assert len(rec.assoc_sets) == 3
    assert rec.agg_strategy == "RESOLVED_BY_SIMILARITY"
    ids = {i for s in rec.assoc_sets for i, _src in s}
    assert ids == {"ENSG00000111276", "ENSG00000180370", "ENSG00000276023"}

    # COX1 -> PTGS1 / MT-CO1: dissimilar labels stay separate sets
    cox1 = syns[("OT_TARGET", "COX 1")]
    assert len(cox1.assoc_sets) == 2

    # non-symbolic unambiguous disease
    nsclc = syns[("MONDO", "NON SMALL CELL LUNG CANCER")]
    assert not nsclc.is_ambiguous
    assert nsclc.all_ids() == {("MONDO_0005233", "MONDO")}

    # term_norm merging: "cancer" and "cancers" normalize together
    cancer = syns[("MONDO", "CANCER")]
    assert set(cancer.terms) >= {"cancer", "cancers"}

    assert meta[("OT_TARGET", "ENSG00000111276")]["default_label"] == "CDKN1B"
    assert meta[("OT_TARGET", "ENSG00000111276")]["annotation_score"] == 5


def test_match_table(compiled_dicts):
    mt = load_match_table(compiled_dicts.curations_path)
    # case traps are case-sensitive
    assert any(e.case_sensitive for e in mt.by_surface["all"])
    assert any(e.case_sensitive for e in mt.by_surface["ad"])
    # long noun phrases are not
    assert all(not e.case_sensitive for e in mt.by_surface["non-small cell lung cancer"])
