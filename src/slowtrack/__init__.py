"""Hierarchical slow-feature learning and particle-filter tracking.

Filters are pre-trained on multi-sequence patch data under a temporal
slowness objective, stacked into a two-layer encoder with PCA whitening
in between, adapted online to a specific target, and consumed by a
particle-filter tracker. Synthetic sequences with exact ground truth
make the whole pipeline verifiable at desk scale.
"""

from ._version import __version__  # noqa: F401
