"""Hierarchical slow-feature learning and particle-filter tracking.

Filters are pre-trained on multi-sequence patch data under a temporal
slowness objective, stacked into a two-layer encoder with PCA whitening
in between, adapted online to a specific target, and consumed by a
particle-filter tracker. Synthetic sequences with exact ground truth
make the whole pipeline verifiable at desk scale.
"""

from ._version import __version__
from .encoder import LayerEncoder, encode
from .errors import (
    DataError,
    LineSearchError,
    ModelFormatError,
    OptimizationError,
    PgmFormatError,
    TrackingLostError,
)
from .hierarchy import (
    HierarchicalModel,
    HierFeature,
    PretrainConfig,
    adapt,
    encode_hier,
    hier_features,
    load_model,
    pretrain,
    save_model,
)
from .metrics import BoxTrace, center_error, overlap_rate
from .objectives import AdaptationObjective, SlownessObjective
from .optimizer import LbfgsConfig, LbfgsHistory, minimize, two_loop_direction
from .patches import Patch, load_frame, sample_training_set, save_frame
from .synth import MotionScript, generate_sequence
from .tracker import (
    ExemplarLibrary,
    MotionModel,
    TrackerConfig,
    run_tracker,
)
from .whitening import WhiteningTransform, apply_whitening, fit_whitening

__all__ = [name for name in dir() if not name.startswith("_")]
