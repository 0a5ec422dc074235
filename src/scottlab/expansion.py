"""Two-term energy assembly and the mean-field comparison sweep.

The headline object is E(Z) ~ Z^(7/3) E_TF + 2 Z^2 sum_k z_k^2 S(kappa_k)
with kappa_k = 8 pi Z_k alpha^2.  The mean-field side evaluates
Z^(7/3) [h^3 trace - D(rho_TF)] at h = Z^(-1/3), which is
the scaling-reduced one-body energy the expansion approximates; the sweep
records how fast their difference dies relative to Z^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


from .core import S0, NuclearConfig
from . import radial_eig
from .tf import TFSolution


class UnsupportedConfigError(ValueError):
    """Raised for quantitative requests outside the atomic (M = 1) scope."""


def s_provider_nonmagnetic(kappa: float) -> float:
    """S(kappa) provider for alpha = 0 runs: the exact S(0) = 1/8."""
    if kappa != 0.0:
        raise ValueError("nonmagnetic provider only serves kappa = 0")
    return S0


def two_term_energy(config: NuclearConfig, s_provider: Callable[[float], float],
                    tf_solution: TFSolution) -> float:
    """Z^(7/3) E_atom + 2 Z^2 sum_k z_k^2 S(kappa_k).

    Quantitative leading terms exist only for atoms; molecular requests
    raise UnsupportedConfigError (the Scott sum itself would be available,
    but the molecular TF energy is out of scope).
    """
    if config.M != 1:
        raise UnsupportedConfigError(
            "molecular TF leading term unavailable; expansion is quantitative for M = 1 only")
    return tf_solution.E_atom * config.Z ** (7.0 / 3.0) + scott_term(config, s_provider)


def scott_term(config: NuclearConfig, s_provider) -> float:
    """2 Z^2 sum_k z_k^2 S(8 pi Z_k alpha^2) alone."""
    return 2.0 * config.Z ** 2 * sum(z ** 2 * s_provider(kk)
                                     for z, kk in zip(config.z, config.kappa_k))


def mean_field_energy(config: NuclearConfig, tf_solution: TFSolution,
                      refine: bool = True, resolution: float = 20.0) -> float:
    """Z^(7/3) [h^3 trace - D(rho_TF)] at h = Z^(-1/3).

    The trace is the A = 0 spectral trace of -h^2 Delta - V_TF.
    """
    if config.M != 1:
        raise UnsupportedConfigError("mean-field energy implemented for atoms only")
    Z = config.Z
    h = Z ** (-1.0 / 3.0)
    s = radial_eig.trace_neg(tf_solution.potential(), h, mu=0.0,
                             refine=refine, resolution=resolution)
    return Z ** (7.0 / 3.0) * (h ** 3 * s.trace - tf_solution.D_rho)


@dataclass(frozen=True)
class ExpansionReport:
    Z: float
    leading: float
    scott: float
    two_term: float
    mean_field: float

    @property
    def residual(self) -> float:
        return self.mean_field - self.two_term

    @property
    def residual_over_Z2(self) -> float:
        return abs(self.residual) / self.Z ** 2


def expansion_sweep(Z_list, alpha: float, tf_solution: TFSolution,
                    refine: bool = True, resolution: float = 20.0) -> list:
    """ExpansionReport per Z with the exact S(0) as Scott term; alpha > 0 raises ValueError."""
    out = []
    for Z in Z_list:
        cfg = NuclearConfig(z=(1.0,), r=((0.0, 0.0, 0.0),), Z=float(Z), alpha=alpha)
        leading = tf_solution.E_atom * cfg.Z ** (7.0 / 3.0)
        scott = scott_term(cfg, s_provider_nonmagnetic)
        two_term = two_term_energy(cfg, s_provider_nonmagnetic, tf_solution)
        mf = mean_field_energy(cfg, tf_solution, refine=refine, resolution=resolution)
        out.append(ExpansionReport(Z=cfg.Z, leading=leading, scott=scott,
                                   two_term=two_term, mean_field=mf))
    return out
