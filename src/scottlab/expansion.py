"""Two-term energy assembly and the mean-field comparison sweep.

The paper's headline object is E(Z) ~ Z^(7/3) E_TF + 2 Z^2 sum_k z_k^2 S(kappa_k)
with kappa_k = 8 pi Z_k alpha^2.  The package evaluates it for the one case
it has both terms of: an atom at alpha = 0, where the Scott term is
2 Z^2 S(0) with the exact S(0) = 1/8.  The mean-field side evaluates
Z^(7/3) [h^3 trace - D(rho_TF)] at h = Z^(-1/3), which is
the scaling-reduced one-body energy the expansion approximates; the sweep
records how fast their difference dies relative to Z^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import S0
from . import radial_eig
from .tf import TFSolution


def mean_field_energy(Z: float, tf_solution: TFSolution,
                      refine: bool = True, resolution: float = 20.0) -> float:
    """Z^(7/3) [h^3 trace - D(rho_TF)] at h = Z^(-1/3) for an atom of charge Z.

    The trace is the A = 0 spectral trace of -h^2 Delta - V_TF.
    """
    h = Z ** (-1.0 / 3.0)
    s = radial_eig.trace_neg(tf_solution.potential(), h, mu=0.0,
                             refine=refine, resolution=resolution)
    return Z ** (7.0 / 3.0) * (h ** 3 * s.trace - tf_solution.D_rho)


@dataclass(frozen=True)
class ExpansionReport:
    Z: float
    leading: float
    scott: float
    mean_field: float

    @property
    def two_term(self) -> float:
        """Z^(7/3) E_atom + 2 Z^2 S(0)."""
        return self.leading + self.scott

    @property
    def residual(self) -> float:
        return self.mean_field - self.two_term

    @property
    def residual_over_Z2(self) -> float:
        return abs(self.residual) / self.Z ** 2


def expansion_sweep(Z_list, alpha: float, tf_solution: TFSolution,
                    refine: bool = True, resolution: float = 20.0) -> list:
    """ExpansionReport per atomic charge Z, with the exact S(0) as Scott term.

    Only alpha = 0 is served, and each Z must be positive and finite; any
    other value raises ValueError naming it, before any trace is solved.
    """
    if alpha != 0.0:
        raise ValueError(f"expansion needs alpha = 0 (S(kappa) is known only at kappa = 0), "
                         f"got alpha = {alpha!r}")
    Zs = [float(Z) for Z in Z_list]
    for Z in Zs:
        if not (math.isfinite(Z) and Z > 0):
            raise ValueError(f"Z must be positive and finite, got Z = {Z!r}")
    return [ExpansionReport(Z=Z, leading=tf_solution.E_atom * Z ** (7.0 / 3.0),
                            scott=2.0 * Z ** 2 * S0,
                            mean_field=mean_field_energy(Z, tf_solution, refine=refine,
                                                         resolution=resolution))
            for Z in Zs]
