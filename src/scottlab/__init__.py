"""scottlab: Thomas-Fermi theory, Weyl integrals, negative-eigenvalue
traces and Scott-correction estimates at desk scale."""

__version__ = "0.3.0"

from .core import ScottEstimate, neg_part_sum  # noqa: F401
from .multiscale import jacobian  # noqa: F401
