"""Scoring pipeline for a two-grader spoken language assessment system.

Provides the challenge metric suite, score-conditioned fusion with
grid-searched per-interval weights, overall-score aggregation, and a
toy-scale attention-pooling + prototype grader head with verified
gradients.
"""

from .core import (
    OVERALL,
    PARTS,
    REFERENCE_LEVELS,
    JoinedDataset,
    Scores,
    join,
    snap_to_grid,
    validate_record,
)
from .fusion import (
    DEFAULT_EDGES,
    FusionCalibration,
    aggregate_overall,
    bin_index,
    calibrate,
    fuse_dataset,
    fuse_one,
)
from .head import (
    FrameSequence,
    HeadParameters,
    TrainConfig,
    forward,
    predict_score,
    train,
)
from .metrics import (
    MetricReport,
    full_report,
    macro_f1,
    pearson,
    rmse,
    spearman,
    within_tolerance,
)

__version__ = "0.1.0"

__all__ = [
    "OVERALL",
    "PARTS",
    "REFERENCE_LEVELS",
    "DEFAULT_EDGES",
    "JoinedDataset",
    "Scores",
    "join",
    "validate_record",
    "FusionCalibration",
    "aggregate_overall",
    "bin_index",
    "calibrate",
    "fuse_dataset",
    "fuse_one",
    "FrameSequence",
    "HeadParameters",
    "TrainConfig",
    "forward",
    "predict_score",
    "train",
    "MetricReport",
    "full_report",
    "macro_f1",
    "pearson",
    "rmse",
    "snap_to_grid",
    "spearman",
    "within_tolerance",
    "__version__",
]
