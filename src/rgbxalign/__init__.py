"""rgbxalign: produce view-aligned RGB-X image pairs from unaligned inputs.

Stages: cross-modal matching and multi-frame keypoint accumulation,
confidence-aware RGB-guided densification at multiple confidence levels,
enhancement and fusion, patch self-matching rejection with fine-stage
re-densification, and export of aligned multi-view datasets alongside
parsed COLMAP poses. A seeded synthetic benchmark makes every stage
quantitatively verifiable without real sensors.
"""

from .imgcore import ConfidenceMap, Image, Mask, SparseMap, load_image, save_image

__version__ = "0.1.0"

__all__ = [
    "ConfidenceMap",
    "Image",
    "Mask",
    "SparseMap",
    "load_image",
    "save_image",
    "__version__",
]
