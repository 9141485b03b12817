"""coskit: Fourier-cosine option pricing with certified parameter selection.

The package prices European options by expanding the density of the
centralized log-return in a cosine series read off the characteristic
function.  Its distinguishing feature is that the truncation ranges and the
number of series terms are not guessed: they are computed from tail and
derivative bounds so that the price provably lands within a requested
tolerance.
"""

__version__ = "0.1.0"

from .bounds import DerivativeBound, HjSource, hj_closed_form, hj_numeric
from .cos_engine import (Call, CosParameters, DigitalBelow, Payoff,
                         PricingResult, Put, cos_price)
from .models import (BS, FMLS, NIG, VG, Cauchy, CentralizedCF, HeavyTail,
                     MarketContext, ModelSpec, SemiHeavyTail, Stable,
                     TailProfile, centralized_cf, tail_profile)
from .tuning import TuningRequest, minimize_series_order, tune

# What a user calls: models, payoffs, tune and cos_price, and the derivative
# bounds that `tune(req, h_next=...)` takes.  Oracles, coefficient internals
# and the other bounds stay importable from their modules (`coskit.reference`
# is the home of the oracles).
__all__ = [
    "__version__",
    # models
    "BS", "NIG", "VG", "FMLS", "Stable", "Cauchy", "ModelSpec",
    "MarketContext", "CentralizedCF", "SemiHeavyTail", "HeavyTail",
    "TailProfile", "centralized_cf", "tail_profile",
    # engine
    "CosParameters", "Put", "Call", "DigitalBelow", "Payoff", "PricingResult",
    "cos_price",
    # bounds
    "DerivativeBound", "HjSource", "hj_closed_form", "hj_numeric",
    # tuning
    "TuningRequest", "tune", "minimize_series_order",
]
