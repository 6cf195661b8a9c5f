"""Gaussian simulator and analysis toolkit for four-mode squeezed-light networks.

The package is organised bottom-up:

- :mod:`quadnet.states` — Gaussian states, symplectic channels, quadrature
  combinations, and physicality checks (vacuum variance 1/4).
- :mod:`quadnet.criteria` — the six correlation combinations per state family,
  closed-form variances, optimal gains, and the bipartite separability bounds
  used to certify full inseparability.
- :mod:`quadnet.network` — a small text format for optical networks, its
  elaborator, and the preset four-mode experiment builder.
- :mod:`quadnet.sampling` — homodyne sample generation, variance estimation,
  and spectrum-analyzer-style noise traces.
- :mod:`quadnet.calibration` — measured-data containers, uniform-efficiency
  fitting, and model-vs-measurement consistency reports.
- :mod:`quadnet.cli` — the ``quadnet`` command-line entry point.

The imports below are the one list of public names: ``__all__`` is built from
them, so a name is exported by importing it here.
"""

from types import ModuleType as _ModuleType

from .calibration import (
    CalibrationFit,
    CalibrationResult,
    ConsistencyReport,
    MeasuredComponent,
    MeasuredDataset,
    MeasuredSum,
    PredictedMeasurement,
    ReportRow,
    SumReconciliation,
    consistency_report,
    fit_uniform_efficiency,
    infer_sum_gains,
    load_measured_dataset,
    packaged_dataset,
    predict_measured,
    synthetic_dataset,
)
from .criteria import (
    ALL_BIPARTITIONS,
    CLUSTER_LABELS,
    CRITERION_LABELS,
    FAMILIES,
    GHZ_LABELS,
    Bipartition,
    CriterionResult,
    GainVector,
    closed_form,
    closed_form_cluster,
    closed_form_ghz,
    combination_forms,
    combination_labels,
    criterion_totals,
    evaluate_criteria,
    full_inseparability,
    numeric_optimal_gain,
    results_from_totals,
    uncovered_bipartitions,
    variance_sum_bound,
)
from .errors import (
    FitNonConvergenceError,
    NetworkFormatError,
    NetworkParseError,
    ParameterRangeError,
    PhysicalityError,
    QuadnetError,
    UndeclaredLabelError,
    UnknownKeywordError,
)
from .network import (
    Element,
    ExperimentConfig,
    NetworkSpec,
    build_experiment_network,
    elaborate,
    packaged_network,
    parse_network,
    serialize_network,
    simulate_experiment,
)
from .sampling import (
    ANALYSIS_FREQUENCY_HZ,
    NoiseTrace,
    TraceConfig,
    VarianceEstimate,
    emit_trace,
    estimate_variance,
    sample_quadratures,
    trace_to_csv,
)
from .states import (
    MAX_SQUEEZING,
    VACUUM_VARIANCE,
    Axis,
    GaussianChannel,
    GaussianState,
    QuadForm,
    apply,
    beam_splitter,
    combination_variance,
    commutation_matrix,
    db_rel_snl,
    is_physical,
    is_symplectic,
    loss_channel,
    phase_shift,
    snl,
    squeezer,
    vacuum,
)

__version__ = "0.1.0"

# every public global in import order, but the submodules each ``from .x import`` binds
__all__ = ["__version__"] + [name for name, value in list(globals().items())
                             if not name.startswith("_") and not isinstance(value, _ModuleType)]
