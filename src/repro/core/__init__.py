"""The paper's primary contribution: the SYN-dog detection pipeline.

``SynDog`` wires together the two interface sniffers (Section 2), the
EWMA normalization of the SYN−SYN/ACK difference (Eq. 1), and the
non-parametric CUSUM sequential change-point test (Eq. 2–5).  The
``parameters`` module carries the analytic results (detection-time
bound Eq. 7, sensitivity floor Eq. 8, DDoS-coverage bound of
Section 4.2.3); ``detectors`` and ``sequential`` hold the baselines the
benches compare against.
"""

from .batch import (
    batch_cusum,
    batch_detect,
    batch_first_alarms,
    batch_normalize,
)
from .cusum import CusumState, NonParametricCusum, cusum_statistic_series
from .lastmile import LastMileSynDog
from .synfin import SYN_FIN_PARAMETERS, SynFinDog
from .detectors import (
    AdaptiveEwmaDetector,
    PeriodDetector,
    StaticThresholdDetector,
    SynRateDetector,
    run_detector,
)
from .normalization import EwmaEstimator, NormalizedDifference
from .parameters import (
    DEFAULT_PARAMETERS,
    TUNED_UNC_PARAMETERS,
    SynDogParameters,
)
from .sequential import (
    NonParametricCusumDetector,
    ParametricGaussianCusum,
    PosteriorTestResult,
    SequentialDetector,
    posterior_mean_shift_test,
)
from .sniffer import (
    CountExchange,
    Direction,
    InboundSniffer,
    OutboundSniffer,
    PeriodReport,
    merge_directional_streams,
)
from .syndog import DetectionRecord, DetectionResult, SynDog

__all__ = [
    "batch_cusum",
    "batch_detect",
    "batch_first_alarms",
    "batch_normalize",
    "LastMileSynDog",
    "SYN_FIN_PARAMETERS",
    "SynFinDog",
    "CusumState",
    "NonParametricCusum",
    "cusum_statistic_series",
    "AdaptiveEwmaDetector",
    "PeriodDetector",
    "StaticThresholdDetector",
    "SynRateDetector",
    "run_detector",
    "EwmaEstimator",
    "NormalizedDifference",
    "DEFAULT_PARAMETERS",
    "TUNED_UNC_PARAMETERS",
    "SynDogParameters",
    "NonParametricCusumDetector",
    "ParametricGaussianCusum",
    "PosteriorTestResult",
    "SequentialDetector",
    "posterior_mean_shift_test",
    "CountExchange",
    "Direction",
    "InboundSniffer",
    "OutboundSniffer",
    "PeriodReport",
    "merge_directional_streams",
    "DetectionRecord",
    "DetectionResult",
    "SynDog",
]
