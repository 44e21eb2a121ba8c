"""trflab: bounded sequence generation by fused forward/backward diffusion sampling.

A desk-scale laboratory for sampling sequences pinned at both ends: one
latent is denoised along a forward path conditioned on the start frame and
a backward path conditioned on the end frame, and the two predictions are
fused every step. Analytic Gaussian and Gaussian-mixture denoisers provide
exact oracles; a small trainable MLP backend demonstrates the same
machinery on learned weights.
"""

from .core import (
    NotSpdError,
    RngBatch,
    RngStream,
    as_frame,
    as_sequence,
    gaussian_noise,
    normal_rows,
    reverse,
    sequence_hash,
    spd_solve,
)
from .schedule import (
    ChurnParams,
    NoiseSchedule,
    build_karras,
    churn_gamma,
    injection_std,
)
from .denoiser import (
    AnalyticGaussianBackend,
    AnalyticGmmBackend,
    Condition,
    DenoiserBackend,
    GmmWorldDenoiser,
    PerFrameConditionBackend,
    precondition_apply,
)
from .worlds import (
    MovingBlobWorld,
    PinnedGaussianProcessWorld,
    TrajectoryGmmWorld,
    blob_position,
    conditional_gmm,
    conditional_moments,
    render_blob,
)
from .sampler import (
    StepRecord,
    StepTrace,
    churn_perturb,
    sample,
)
from .trf import (
    AlphaSchedule,
    TrfConfig,
    alpha_weights,
    baseline_condition_interp,
    baseline_inpaint,
    fuse,
    fusion_objective,
    trf_sample,
)
from .train import (
    ArchDescriptor,
    CheckpointCorruptError,
    CheckpointError,
    CheckpointVersionError,
    MlpBackend,
    MlpParams,
    TrainConfig,
    TrainingDivergedError,
    edm_loss,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .metrics import (
    MetricReport,
    ModeCoverage,
    endpoint_error,
    energy_distance,
    mode_coverage,
    roughness,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    ExperimentManifest,
    evaluate_run,
    export_frames_pgm,
    export_trajectory_csv,
    export_tensor,
    load_tensor,
    load_trajectory_csv,
    run_experiment,
)

__version__ = "0.1.0"
