"""Shared tolerance configuration.

The singularity floors and fallback thresholds of the library live in one
record, so that tests, the CLI and library code agree on defaults.  The
CLI's check tolerances are ``cli.CHECK_TOLERANCES``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ToleranceConfig:
    # |f(t)| floor below which the nu_plus-reduction chain is declared singular
    f_min: float = 1e-9
    # |nu_plus| floor for the compact nu_minus expression
    nu_min: float = 1e-9
    # |nu_minus| floor below which the closed-form evolved vacuum switches to
    # the null-space fallback
    vacuum_nu_min: float = 1e-4
    # minimal key-component modulus for the Lewis-Riesenfeld eigenframe gauge
    gauge_min: float = 1e-9


DEFAULT_TOL = ToleranceConfig()
