"""Numerics for the birth-of-a-cut random matrix transition.

Subpackages by role:

* ``potentials``   critical potential construction and validation
* ``specialfn``    elliptic integrals (one AGM), theta1 on the imaginary axis
* ``equilibrium``  one- and two-cut equilibrium measures and derivatives
* ``critical``     near-critical expansions (endpoint drift, newborn scaling)
* ``modelchain``   the effective y^{2 nu}/(2 nu) matrix model on the oracle chain
* ``asymptotics``  mean-field predictions for gamma_n, beta_n, psi_n, kernel
* ``oracle``       the one recurrence-chain type: exact finite-N chain (ground
                   truth), its integer Stieltjes builder and evaluators
* ``cli``          command-line front end emitting CSV / key=value blocks
"""

from .poly import Poly
from .potentials import (CriticalSpec, build_critical_Q, build_potential,
                         make_quartic_spec, make_spec, quartic_etilde,
                         validate_critical)

__all__ = [
    "Poly", "CriticalSpec", "build_critical_Q", "build_potential",
    "make_quartic_spec", "make_spec", "quartic_etilde", "validate_critical",
]

__version__ = "0.1.0"
