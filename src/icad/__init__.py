"""Real-time out-of-distribution detection via inductive conformal anomaly
detection, with learned (VAE, deep SVDD) nonconformity measures, martingale
tests, and a drift-episode harness."""

from .conformal import (
    CalibrationSet,
    CusumDetector,
    FingerprintMismatchError,
    MartingaleState,
    StepResult,
    SvddPipeline,
    ThresholdDetector,
    VaePipeline,
    calibration_scores,
    mixture_martingale_log,
    p_value,
)
from .episodes import (
    DriftSchedule,
    EpisodeResult,
    SceneGenerator,
    SuiteMetrics,
    benchmark_timing,
    collect_traces,
    generate_dataset,
    make_suite_schedules,
    run_episode,
    run_suite,
    tune_thresholds,
)
from .models import (
    SvddModel,
    TrainConfig,
    TrainingDivergedError,
    VaeModel,
    pretrain_with_autoencoder,
    sample_reconstructions,
    svdd_init_center,
    train_svdd,
    train_vae,
)
from .neural import AdamState, DenseLayer, Mlp, adam_step, backward, forward, infer
from .nonconformity import SvddScorer, VaeScorer

__version__ = "0.1.0"
