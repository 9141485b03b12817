"""coskit: Fourier-cosine option pricing with certified parameter selection.

The package prices European options by expanding the density of the
centralized log-return in a cosine series read off the characteristic
function.  Its distinguishing feature is that the truncation ranges and the
number of series terms are not guessed: they are computed from tail and
derivative bounds so that the price provably lands within a requested
tolerance.
"""

__version__ = "0.1.0"

from .bounds import (DerivativeBound, HjSource, bl_bound_heavy,
                     bl_bound_semiheavy, bl_bruteforce, hj_closed_form,
                     hj_density_sup, hj_numeric, series_truncation_bound)
from .cos_engine import (Call, CosParameters, DigitalBelow, Payoff,
                         PricingResult, Put, cos_coefficients, cos_price,
                         payoff_coefficients)
from .models import (BS, FMLS, NIG, VG, Cauchy, CentralizedCF, HeavyTail,
                     MarketContext, ModelSpec, SemiHeavyTail, Stable,
                     TailProfile, central_moment, centralized_cf,
                     closed_form_density, fmls_as_stable, tail_profile)
from .reference import (CarrMadanConfig, black_scholes_call,
                        black_scholes_put, carr_madan_call, cauchy_cdf,
                        density_by_inversion, derivative_by_inversion)
from .tuning import TuningRequest, minimize_series_order, tune

__all__ = [
    "__version__",
    # models
    "BS", "NIG", "VG", "FMLS", "Stable", "Cauchy", "ModelSpec",
    "MarketContext", "CentralizedCF", "SemiHeavyTail", "HeavyTail",
    "TailProfile", "centralized_cf", "tail_profile", "central_moment",
    "closed_form_density", "fmls_as_stable",
    # engine
    "CosParameters", "Put", "Call", "DigitalBelow", "Payoff", "PricingResult",
    "cos_coefficients", "payoff_coefficients", "cos_price",
    # bounds
    "DerivativeBound", "HjSource", "hj_closed_form", "hj_numeric",
    "hj_density_sup", "series_truncation_bound", "bl_bound_semiheavy",
    "bl_bound_heavy", "bl_bruteforce",
    # tuning
    "TuningRequest", "tune", "minimize_series_order",
    # reference
    "CarrMadanConfig", "carr_madan_call", "black_scholes_put",
    "black_scholes_call", "cauchy_cdf", "density_by_inversion",
    "derivative_by_inversion",
]
