"""Declarative pipeline configuration.

The reference wires its pipeline from a Hydra config tree
(/root/reference/kazu/conf/config.yaml, Pipeline/default.yaml with
``step_groups`` like ner_only / linking_only).  The equivalent here is a
plain dataclass naming stages and parameters plus a registry — no
framework, introspectable, serializable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# step groups mirroring conf/Pipeline/default.yaml:16-22
STEP_GROUPS: dict[str, tuple[str, ...]] = {
    "default": ("prefilter", "dict_ner", "doc_post"),
    "full": ("prefilter", "dict_ner", "transformer_ner", "linking", "doc_post"),
    "ner_only": ("prefilter", "dict_ner", "transformer_ner"),
    "linking_only": ("linking", "doc_post"),
    # token-level phrase matching variant (Explosion-analogue NER)
    "token_match": ("prefilter", "token_ner", "doc_post"),
    # rule-pipeline NER (SpacyNerStep analogue, EntityRuler deployment
    # mode) — output flows into linking like reference spaCy-NER output
    # flows into DictionaryEntityLinkingStep
    "pattern_ner": ("prefilter", "pattern_ner", "linking", "doc_post"),
    # mutation NER (SethStep analogue) — gated on gene entities from
    # dict NER, like reference conf/SethStep/default.yaml's condition
    "mutation": ("prefilter", "dict_ner", "mutation_ner", "doc_post"),
    # IUPAC resolution (OpsinStep analogue) — runs after mapping, like
    # the reference's "${OpsinStep} just after ${MappingStep}" wiring
    "chem": ("prefilter", "dict_ner", "linking", "doc_post", "opsin"),
}


@dataclass(frozen=True)
class PipelineConfig:
    steps: tuple[str, ...] = STEP_GROUPS["default"]
    batch_size: int = 256
    concurrency: int = 4
    actor_num_cpus: float = 1.0
    xrefs: bool = False
    # "mock" = gazetteer stand-in; a directory path = real checkpoint
    # (HF layout, loaded torch-lessly via state/numpy_bert.py).  The
    # repo ships one: kazu_ray.assets.TINY_BERT_NER.
    transformer_tagger: str = "mock"
    # per-actor GPU reservation for the transformer step (the GPU seam:
    # on a GPU cluster set e.g. 1.0 and size concurrency from
    # ray.cluster_resources()["GPU"]; 0.0 = CPU-only pool, no
    # reservation passed to map_batches)
    transformer_num_gpus: float = 0.0
    # EntityRuler-style rules for the pattern_ner step:
    # {entity_class: [token-pattern or phrase string, ...]}
    pattern_rules: dict = field(default_factory=dict)

    @classmethod
    def from_group(cls, group: str, **overrides) -> "PipelineConfig":
        return cls(steps=STEP_GROUPS[group], **overrides)


def build(docs_ds, dicts, config: PipelineConfig):
    """Assemble the staged pipeline from a config; returns the annotated
    docs Dataset (use pipelines.kg.edges_pipeline for the fused
    edges-only path)."""
    from ..stages.dict_ner import DictionaryNer
    from ..stages.doc_post import DocPostProcessor
    from .kg import prefilter_batch

    pool = (1, config.concurrency)
    common = dict(
        batch_format="pyarrow",
        batch_size=config.batch_size,
        concurrency=pool,
        num_cpus=config.actor_num_cpus,
    )
    ds = docs_ds
    for step in config.steps:
        if step == "prefilter":
            ds = ds.map_batches(prefilter_batch, batch_format="pyarrow")
        elif step == "dict_ner":
            ds = ds.map_batches(
                DictionaryNer,
                fn_constructor_args=(dicts.curations_path, dicts.synonyms_path),
                **common,
            )
        elif step == "token_ner":
            from ..stages.token_ner import TokenPhraseNer

            ds = ds.map_batches(
                TokenPhraseNer,
                fn_constructor_args=(dicts.curations_path, dicts.synonyms_path),
                **common,
            )
        elif step == "pattern_ner":
            from ..stages.pattern_ner import PatternNer

            ds = ds.map_batches(
                PatternNer,
                fn_constructor_args=(config.pattern_rules,),
                **common,
            )
        elif step == "mutation_ner":
            from ..stages.mutation_ner import MutationNer

            # stateless regex scan — plain task pool, no actor state
            ds = ds.map_batches(MutationNer(), batch_format="pyarrow")
        elif step == "opsin":
            from ..stages.opsin import OpsinStage

            # stateless grammar parse — plain task pool, no actor state
            ds = ds.map_batches(OpsinStage(), batch_format="pyarrow")
        elif step == "transformer_ner":
            from ..stages.transformer_ner import TransformerNer

            tkw = dict(common)
            if config.transformer_num_gpus > 0:
                tkw["num_gpus"] = config.transformer_num_gpus
            ds = ds.map_batches(
                TransformerNer,
                fn_constructor_args=(config.transformer_tagger,),
                **tkw,
            )
        elif step == "linking":
            from ..constants import NS_DICT_NER
            from ..stages.linking import TfIdfLinker

            # dict-matcher entities are already linked — reference
            # conf/DictionaryEntityLinkingStep/default.yaml skips the
            # string-matching namespaces
            ds = ds.map_batches(
                TfIdfLinker,
                fn_constructor_args=(dicts.synonyms_path, (NS_DICT_NER,)),
                **common,
            )
        elif step == "doc_post":
            args = [dicts.synonyms_path, dicts.metadata_path]
            if config.xrefs:
                args.append(dicts.xrefs_path)
            ds = ds.map_batches(
                DocPostProcessor, fn_constructor_args=tuple(args), **common
            )
        else:
            raise ValueError(f"unknown step {step!r}")
    return ds
