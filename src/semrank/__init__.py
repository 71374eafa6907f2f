"""semrank: a desk-scale alignment pipeline (CPT, SFT, GRPO) built around a
semantic embedding reward, with a tiny exactly-differentiable policy model,
AdamW/Muon optimizers, an Elo evaluation arena, and hermetic stub servers.
"""

__version__ = "0.1.0"

from .embedder import ToyEmbedder, cosine, embed_toy, reference_centroid
from .policy import LoraConfig, PolicyParams, SampledSequence
from .rewards import (RewardBreakdown, RewardConfig, RewardContext,
                      rouge_l_f1, semantic_reward)
from .text_protocol import TaggedOutput, normalize_answer, parse_tagged
from .trainer import GrpoConfig, group_advantages

__all__ = [
    "ToyEmbedder", "cosine", "embed_toy", "reference_centroid",
    "LoraConfig", "PolicyParams", "SampledSequence",
    "RewardBreakdown", "RewardConfig", "RewardContext",
    "rouge_l_f1", "semantic_reward",
    "TaggedOutput", "normalize_answer", "parse_tagged",
    "GrpoConfig", "group_advantages",
]
