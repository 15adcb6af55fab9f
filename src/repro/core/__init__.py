"""BB-Align: the paper's two-stage pose recovery framework.

:class:`BBAlign` (in :mod:`repro.core.pipeline`) implements Algorithm 1
end-to-end; :mod:`repro.core.bv_matching` is stage 1 (BV image matching)
and :mod:`repro.core.box_alignment` stage 2 (bounding-box refinement).
"""

from repro.core.box_alignment import BoxAligner, BoxAlignment
from repro.core.bv_matching import BVFeatures, BVMatch, BVMatcher
from repro.core.confidence import ConfidenceModel, fit_confidence_model
from repro.core.config import (
    BBAlignConfig,
    BoxAlignConfig,
    BVImageConfig,
    BVMatchRansacConfig,
    SuccessCriteria,
)
from repro.core.degradation import (
    DegradationLevel,
    FailureReason,
    StageDiagnostics,
)
from repro.core.multi import MultiAlignment, MultiVehicleAligner
from repro.core.pipeline import BBAlign
from repro.core.result import PoseRecoveryResult
from repro.core.temporal import PoseTracker, TrackedPose, TrackerConfig

__all__ = [
    "BBAlign",
    "BBAlignConfig",
    "BVFeatures",
    "BVImageConfig",
    "BVMatch",
    "BVMatchRansacConfig",
    "BVMatcher",
    "BoxAlignConfig",
    "BoxAligner",
    "BoxAlignment",
    "ConfidenceModel",
    "DegradationLevel",
    "FailureReason",
    "StageDiagnostics",
    "MultiAlignment",
    "MultiVehicleAligner",
    "PoseRecoveryResult",
    "PoseTracker",
    "SuccessCriteria",
    "TrackedPose",
    "TrackerConfig",
    "fit_confidence_model",
]
