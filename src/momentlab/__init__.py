"""momentlab: exact Catalan-like sequences and their moment problems.

The package generates Catalan-like number sequences from (sigma, tau)
recurrence data, classifies finite prefixes as Hamburger / Stieltjes /
interval moment sequences through exact Hankel criteria, certifies
support intervals with chain sequences, and verifies closed-form
integral representations and sequence transforms by quadrature.
"""

from .errors import (
    GNegative,
    HypothesisFailure,
    InsufficientData,
    LengthMismatch,
    MomentLabError,
    NonIntegrable,
    NotPositiveCase,
    PoleAt,
    QuasiDefiniteFailure,
    TooShort,
    UnknownName,
    ZeroTau,
)
from .exact import Surd, ensure_fraction, format_rational, sqrt_exact
from .seqcore import (
    CATALOG,
    RecursiveMatrix,
    Sequence,
    SigmaTauSpec,
    catalan_like,
    catalog_names,
    catalog_sequence,
    make_spec,
    recursive_matrix,
    spec_from_prefixes,
)
from .hankel import (
    HausdorffVerdict,
    MomentClassReport,
    PsdVerdict,
    SymMatrix,
    bareiss_det,
    classify,
    hankel_det,
    hankel_matrix,
    hausdorff_combination,
    hausdorff_test,
    psd_status,
    shift,
    total_positive_up_to,
)
from .orthopoly import (
    MonicPolynomial,
    ops_determinantal,
    ops_from_recurrence,
    ops_zeros,
    recurrence_from_moments,
    riesz,
    true_interval_estimate,
)
from .chainseq import (
    ChainVerdict,
    SupportCertificate,
    SupportReport,
    alpha_sequence,
    certify_support,
    constant_tail_certificate,
    is_chain_with_parameters,
    minimal_parameters,
    support_interval,
)
from .measures import (
    Density,
    TransformSpec,
    check_g_nonneg,
    density_catalog,
    density_names,
    density_plot_csv,
    linear_combination_transform,
    moment_quadrature,
    pattern_is_stieltjes_preserving,
    pushforward_power,
    subsequence_transform,
    transform_support,
    transformed_density,
    translate_density,
    verify_representation,
    verify_transform_consistency,
)

__version__ = "0.1.0"
