"""Kernel-adaptive, mode-hopping MCMC for learning parallel-jaw grasps."""

__version__ = "0.1.0"

from .darting import DartingConfig, JumpRegion, build_jump_region, darting_step
from .grasping import (
    Grasp,
    GraspOutcome,
    demonstrate_grasps,
    evaluate_grasp,
    make_target,
)
from .gripper import GripperModel, default_gripper
from .history import ChainHistory
from .kameleon import KameleonConfig, kameleon_step, run_kameleon_chain
from .kernels import GaussianKernel
from .learning import (
    LearnedModel,
    RoughSketch,
    active_learn,
    build_rough_sketch,
    random_sketch,
    run_combined_chain,
    tally_outcomes,
    transfer_learn,
)
from .objects import ObjectModel, get_object, object_catalog
from .vmf import VonMisesFisher, sample_vmf

__all__ = [
    "ChainHistory",
    "DartingConfig",
    "GaussianKernel",
    "Grasp",
    "GraspOutcome",
    "GripperModel",
    "JumpRegion",
    "KameleonConfig",
    "LearnedModel",
    "ObjectModel",
    "RoughSketch",
    "VonMisesFisher",
    "active_learn",
    "build_jump_region",
    "build_rough_sketch",
    "darting_step",
    "default_gripper",
    "demonstrate_grasps",
    "evaluate_grasp",
    "get_object",
    "kameleon_step",
    "make_target",
    "object_catalog",
    "random_sketch",
    "run_combined_chain",
    "run_kameleon_chain",
    "sample_vmf",
    "tally_outcomes",
    "transfer_learn",
]
