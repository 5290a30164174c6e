"""Two special-function names kept for the benchmark's call counters.

No gammacross module calls these: the package uses `scipy.special`
directly, and lnGamma, the incomplete gamma and beta functions and the gamma
density all come from it or from closed forms.  `bench/tracing.py` still
wraps these two names, so they stay as aliases until its counters move to
`scipy.special`; then the module goes.
"""

from scipy.special import gammainc as reg_lower_inc_gamma
from scipy.special import gammaln as log_gamma

__all__ = ["log_gamma", "reg_lower_inc_gamma"]
