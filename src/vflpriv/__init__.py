"""Feature reconstruction attacks and defenses for split logistic regression.

The package models a two-party setting where one party holds part of each
sample's features and observes per-class confidence scores. It provides the
linear-system view of those scores, a family of reconstruction estimators,
single-feature black-box attacks, and two score-preserving defenses.
"""

from .attacks import AttackError, AttackEstimate, run_attack
from .blackbox import BlackboxEstimate, bb_case1, bb_case2, bb_case3
from .dataset import DataError, Dataset, SyntheticSpec, load_dataset, synthesize
from .defense import NoisePlan, OrthonormalTransform
from .metrics import MomentMatrices, MseReport, empirical_mse, moments
from .model import TrainConfig, VflModel, VflSplit, predict, train
from .system import LinearSystem, build_system

__all__ = [
    "AttackError", "AttackEstimate", "run_attack",
    "BlackboxEstimate", "bb_case1", "bb_case2", "bb_case3",
    "DataError", "Dataset", "SyntheticSpec", "load_dataset", "synthesize",
    "NoisePlan", "OrthonormalTransform",
    "MomentMatrices", "MseReport", "empirical_mse", "moments",
    "TrainConfig", "VflModel", "VflSplit", "predict", "train",
    "LinearSystem", "build_system",
]

__version__ = "0.1.0"
