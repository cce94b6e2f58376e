"""Eye-head coordination: hinge-family contribution models and the mover spectrum.

The package splits a horizontal gaze shift into its eye and head parts,
models head contribution as a function of target eccentricity, fits the
candidate models per participant, and embeds the fitted curves in a
low-dimensional population spectrum.
"""

from .errors import (
    DomainError,
    EmptyDataError,
    EmptyFileError,
    EmptyReferenceError,
    EyeheadError,
    GridMismatchError,
    IndexOutOfRangeError,
    LengthMismatchError,
    MismatchedDataError,
    MissingColumnError,
    MissingInputError,
    NonMonotonicTimeError,
    NoOverlapError,
    OneSidedDataError,
    TooFewCurvesError,
    TooFewFixationsError,
    TooFewPointsError,
    TooFewSamplesError,
    TraceSchemaError,
    ZeroSpreadError,
)
from .events import (
    Fixation,
    FixationConfig,
    angular_velocity,
    detect_fixations,
    extract_shifts,
    preprocess_trial,
)
from .fitting import (
    FitResult,
    ParticipantFit,
    aic_gaussian,
    compare_models,
    fit_hinge,
    fit_linear,
    fit_metrics,
    fit_participant,
    fit_participants,
    fit_soft_hinge,
)
from .fpca import (
    DEFAULT_GRID,
    CurveGrid,
    Spectrum,
    fit_fpca,
    project,
    reconstruct,
    reconstruct_mode,
    sample_curves,
    score_percentile,
    score_table,
)
from .ingest import (
    AlignedTrace,
    FilterConfig,
    RawStream,
    SanityReport,
    ShiftSet,
    align_head_to_gaze,
    concat_shift_sets,
    load_trace_csv,
    one_euro,
    read_shifts_csv,
    sanity_check,
    symmetrize_and_clean,
    unwrap_yaw,
    write_shifts_csv,
    write_trace_csv,
)
from .models import (
    HingeParams,
    LinearParams,
    SoftHingeParams,
    compute_eor,
    compute_ehr_slope,
    eval_model,
    hinge_gradient,
    model_gradient,
    params_from_dict,
    params_to_dict,
    softplus,
)
from .stats import (
    DistributionSummary,
    SymmetryReport,
    describe_distribution,
    kde_density,
    pearson_r,
    quartiles,
    skewness,
    symmetry_check,
    threshold_sensitivity,
    threshold_shifts,
)
from .synth import SynthConfig, draw_population, synth_shifts, synth_trace

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
