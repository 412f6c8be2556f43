"""Real-time out-of-distribution detection via inductive conformal anomaly
detection, with learned (VAE, deep SVDD) and classical (k-NN, KDE)
nonconformity measures, martingale tests, and a drift-episode harness."""

from .conformal import (
    CalibrationSet,
    CusumDetector,
    FingerprintMismatchError,
    MartingaleState,
    StepResult,
    SvddPipeline,
    ThresholdDetector,
    VaePipeline,
    calibrate,
    calibration_scores,
    integrate_power_factor,
    mixture_martingale_log,
    p_value,
    svdd_detect_step,
    vae_detect_step,
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
    mean_reconstruction,
    pretrain_with_autoencoder,
    sample_reconstructions,
    svdd_init_center,
    svdd_loss,
    train_svdd,
    train_vae,
    vae_loss,
)
from .neural import AdamState, DenseLayer, Mlp, adam_step, backward, forward, grad_check
from .nonconformity import (
    KdeScorer,
    KnnScorer,
    SvddScorer,
    VaeScorer,
    svdd_score,
    vae_score,
)

__version__ = "0.1.0"
