"""Distributions of weighted sums of independent gamma variables, and
numerical certification of how two such distribution functions cross.
"""

from ._version import ENGINE_VERSION, __version__
from .counterexample import (
    CounterexampleCertificate,
    VerificationReport,
    build_counterexample,
    verify_certificate,
)
from .crossing import (
    Classification,
    Crossing,
    CrossingReport,
    Sign,
    h_diff,
    lemma2_residual,
    near_zero_sign,
    sign_profile,
    tail_sign,
    u_star,
)
from .errors import (
    ConvergenceError,
    DomainError,
    GammaCrossError,
    SearchExhaustedError,
    UndecidedError,
)
from .gconv import (
    EcdfBand,
    GammaComponent,
    GammaConvolution,
    ecdf_band,
    h1_closed,
    h2_closed,
    make_convolution,
)
from .mixtures import (
    ModeStructure,
    StationaryPoint,
    bimodal_mixture,
    bimodality_window,
    exp_pair_logconcavity_sides,
    gamma_mixture,
    lemma3_lambda,
    mode_structure,
)
from .orders import (
    VMajWitness,
    log_majorizes,
    majorizes,
    st_dominates,
    star_order_check,
    v_majorizes,
    v_majorizes_brute,
)

__all__ = [
    "__version__",
    "ENGINE_VERSION",
    "GammaCrossError",
    "DomainError",
    "ConvergenceError",
    "UndecidedError",
    "SearchExhaustedError",
    "GammaComponent",
    "GammaConvolution",
    "make_convolution",
    "EcdfBand",
    "ecdf_band",
    "h1_closed",
    "h2_closed",
    "majorizes",
    "log_majorizes",
    "VMajWitness",
    "v_majorizes",
    "v_majorizes_brute",
    "st_dominates",
    "star_order_check",
    "Sign",
    "Classification",
    "Crossing",
    "CrossingReport",
    "sign_profile",
    "near_zero_sign",
    "tail_sign",
    "u_star",
    "h_diff",
    "lemma2_residual",
    "ModeStructure",
    "StationaryPoint",
    "lemma3_lambda",
    "bimodality_window",
    "gamma_mixture",
    "bimodal_mixture",
    "mode_structure",
    "exp_pair_logconcavity_sides",
    "CounterexampleCertificate",
    "VerificationReport",
    "build_counterexample",
    "verify_certificate",
]
