"""disclab: a numerical laboratory for analytic discs on flat hypersurfaces.

The package builds squeezed analytic discs whose boundaries concentrate
at a single point of an exponentially flat hypersurface in C^2, solves
Bishop's equation to attach them, and measures whether the attached disc
dips below the surface; the answer flips with the flatness exponent, and
the modules here exist to exhibit that dichotomy numerically.

Layers, bottom up: `circle` (spectral transforms on the unit circle),
`disc_family` (the squeezed first components), `profiles` (flat height
profiles and their bump deformations), `bishop` (the attachment solver),
`asymptotics` (the dichotomy integral), `propagation` (the full
experiment), `cli` (the command-line front end).
"""

from .asymptotics import (
    FAlphaSpec,
    QuadratureResult,
    ScanResult,
    dichotomy_scan,
    f_alpha,
    positive_window,
)
from .bishop import (
    AttachedDisc,
    BishopProblem,
    SolveReport,
    attachment_residual,
    cauchy_extend,
    contraction_estimate,
    phi_on_grid,
    solve_bishop,
)
from .circle import (
    BoundaryFunction,
    CircleGrid,
    FourierCoeffs,
    conjugate,
    evaluate_trig,
    fourier_coeffs,
    hilbert_t1,
    holder_seminorm,
    holomorphy_defect,
    poisson_extend,
    poisson_radial,
    radial_derivative,
    reconstruct,
    spectral_identity_errors,
)
from .disc_family import (
    SQUEEZE_LIMIT,
    DiscFamilyParams,
    concentration_bound_check,
    im_phi_boundary,
    im_phi_expansion_check,
    inv_abs_im_phi_logtheta,
    phi_boundary,
    phi_eval,
)
from .exceptions import (
    DiscLabError,
    GridUnresolved,
    NoAdmissibleAlpha,
    NotConverged,
    QuadratureNonConvergent,
)
from .profiles import (
    KIND_ABS,
    KIND_IM,
    BumpDeformation,
    FlatProfile,
    flatness_order_check,
    profile_eval,
    tilde_h_eval,
)
from .propagation import (
    EtaCell,
    ExperimentConfig,
    PropagationReport,
    alpha_search,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # circle
    "CircleGrid",
    "BoundaryFunction",
    "FourierCoeffs",
    "conjugate",
    "hilbert_t1",
    "fourier_coeffs",
    "reconstruct",
    "poisson_extend",
    "poisson_radial",
    "evaluate_trig",
    "radial_derivative",
    "holomorphy_defect",
    "holder_seminorm",
    "spectral_identity_errors",
    # disc family
    "SQUEEZE_LIMIT",
    "DiscFamilyParams",
    "phi_eval",
    "phi_boundary",
    "im_phi_boundary",
    "inv_abs_im_phi_logtheta",
    "im_phi_expansion_check",
    "concentration_bound_check",
    # profiles
    "KIND_IM",
    "KIND_ABS",
    "FlatProfile",
    "BumpDeformation",
    "profile_eval",
    "tilde_h_eval",
    "flatness_order_check",
    # bishop
    "BishopProblem",
    "SolveReport",
    "AttachedDisc",
    "phi_on_grid",
    "solve_bishop",
    "contraction_estimate",
    "attachment_residual",
    "cauchy_extend",
    # asymptotics
    "FAlphaSpec",
    "QuadratureResult",
    "ScanResult",
    "f_alpha",
    "dichotomy_scan",
    "positive_window",
    # propagation
    "ExperimentConfig",
    "EtaCell",
    "PropagationReport",
    "run_experiment",
    "alpha_search",
    # exceptions
    "DiscLabError",
    "NotConverged",
    "QuadratureNonConvergent",
    "GridUnresolved",
    "NoAdmissibleAlpha",
]
