"""Near-critical expansions: endpoint drift, newborn-cut scaling, transition order.

Below T_c the single cut shrinks linearly in t = T - T_c; above T_c the
newborn cut [c, d] around e opens like (-t/ln(t/T_c))^{1/(2 nu)}. The scaling
data (zeta, C, the even monic polynomial G) is model-independent up to the
two numbers phi_e and Q(e).

Convention for logarithms: t is used dimensionfully where it multiplies a
susceptibility (the ODE in T fixes that), while every logarithm takes the
dimensionless t/T_c. All formulas below follow that reading; `t` arguments
are dimensionful (same units as T_c).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial

from mpmath import mp, mpf

from .equilibrium import PhaseError
from .poly import Poly
from .potentials import CriticalSpec


@dataclass
class NewbornScaling:
    zeta: mpf
    C: mpf
    G: Poly           # even monic, degree 2 nu - 2, in the rescaled variable
    c: mpf            # e - 2 zeta (-t/ln(t/Tc))^{1/2nu}
    d: mpf
    delta_x0: mpf     # x0 - d ~ 4 nu phi_e sinh(phi_e)/ln(t/Tc)
    m_asym: mpf
    epsilon: mpf      # filling fraction of the newborn cut


def scaling_constant_C(spec: CriticalSpec):
    """C = 4 nu^2 phi_e / (sinh(phi_e) Q(e)) > 0."""
    return 4 * mpf(spec.nu) ** 2 * spec.phi_e / (mp.sinh(spec.phi_e) * spec.Q(spec.e))


def scaling_zeta(spec: CriticalSpec):
    """zeta = (C/2 * nu! (nu-1)! / (2 nu)!)^{1/(2 nu)}."""
    nu = spec.nu
    C = scaling_constant_C(spec)
    val = C / 2 * mpf(factorial(nu)) * factorial(nu - 1) / factorial(2 * nu)
    return val ** (mpf(1) / (2 * nu))


def g_scaling_poly(nu: int, zeta) -> Poly:
    """G(xi) = sum_{k=0}^{nu-1} (2k)!/(k! k!) zeta^{2k} xi^{2(nu-1-k)}."""
    zeta = mpf(zeta)
    coeffs = [mpf(0)] * (2 * nu - 1)
    for k in range(nu):
        coeffs[2 * (nu - 1 - k)] = mpf(comb(2 * k, k)) * zeta ** (2 * k)
    return Poly(coeffs)


def _edge_weights(spec: CriticalSpec):
    """(w_+, w_-) = ((e-2)^{2nu-1} Q(2), (e+2)^{2nu-1} Q(-2)), M's values at
    the cut ends 2 and -2: to first order in t the ends move to
    b = 2 - t/w_+ and a = -2 + t/w_-."""
    nu, e, Q = spec.nu, spec.e, spec.Q
    return ((e - 2) ** (2 * nu - 1) * Q(mpf(2)),
            (e + 2) ** (2 * nu - 1) * Q(mpf(-2)))


def _drifted_ends(spec: CriticalSpec, t):
    """The old cut's ends to first order in t: (-2 + t/w_-, 2 - t/w_+)."""
    wp, wm = _edge_weights(spec)
    return -2 + t / wm, 2 - t / wp


def one_cut_drift(spec: CriticalSpec, t):
    """First-order endpoint and recurrence-coefficient drift for t < 0.

    a = -2 + t/((2+e)^{2nu-1} Q(-2)),  b = 2 - t/((e-2)^{2nu-1} Q(2));
    the gamma_n/beta_n values hold at n = N(1 + t/T_c).
    """
    t = mpf(t)
    if t >= 0:
        raise ValueError("one-cut drift needs t < 0")
    wp, wm = _edge_weights(spec)
    a, b = _drifted_ends(spec, t)
    return {
        "a": a,
        "b": b,
        "gamma_n": 1 - t / 4 * (1 / wp + 1 / wm),
        "beta_n": -t / 2 * (1 / wp - 1 / wm),
    }


def newborn_scaling(spec: CriticalSpec, t) -> NewbornScaling:
    """Leading scaling data of the newborn cut for 0 < t << T_c."""
    t = mpf(t)
    that = t / spec.Tc
    if not 0 < that < 1:
        # at t >= T_c, ln(t/T_c) >= 0 and the scaling powers turn complex
        raise ValueError("newborn scaling needs 0 < t < T_c")
    nu, phi = spec.nu, spec.phi_e
    lnt = mp.log(that)
    C = scaling_constant_C(spec)
    zeta = scaling_zeta(spec)
    tau_pow = (-t / lnt) ** (mpf(1) / (2 * nu))
    half = 2 * zeta * tau_pow
    return NewbornScaling(
        zeta=zeta,
        C=C,
        G=g_scaling_poly(nu, zeta),
        c=spec.e - half,
        d=spec.e + half,
        delta_x0=4 * nu * phi * mp.sinh(phi) / lnt,
        m_asym=4 * zeta / mp.sinh(phi) ** 2 * tau_pow,
        epsilon=-2 * nu * phi * that / lnt,
    )


def two_cut_guess(spec: CriticalSpec, t):
    """Initial endpoints (a, b, c, d) for the two-cut solve at T = T_c + t,
    0 < t << T_c: the old cut's first-order drift (`one_cut_drift`'s a and b,
    continued to t > 0) and the newborn cut [c, d] of `newborn_scaling`.

    PhaseError where these ends are out of order: past the two-cut window
    the newborn cut's first-order c crosses the old cut's b (ROADMAP item
    9), and no two-cut solve starts from such a guess."""
    ns = newborn_scaling(spec, t)
    ends = _drifted_ends(spec, mpf(t)) + (ns.c, ns.d)
    for i in range(3):
        if not ends[i] < ends[i + 1]:
            raise PhaseError("two-cut guess crossed: %s = %s >= %s = %s; t may "
                             "be past the two-cut window"
                             % ("abcd"[i], mp.nstr(ends[i], 6),
                                "abcd"[i + 1], mp.nstr(ends[i + 1], 6)))
    return ends


def transition_curvature(spec: CriticalSpec, t):
    """d^2F/dt^2 near the transition: linear in t below, 4 nu phi_e^2/ln(t/T_c)
    above. Continuous (-> 0) from both sides; the third derivative jumps."""
    t = mpf(t)
    if not 0 < abs(t) < spec.Tc:
        # at t = T_c, ln(t/T_c) = 0; below, t <= -T_c puts T at or below 0
        raise ValueError("transition curvature needs 0 < |t| < T_c")
    if t < 0:
        wp, wm = _edge_weights(spec)
        return t / 2 * (1 / wp + 1 / wm)
    return 4 * spec.nu * spec.phi_e ** 2 / mp.log(t / spec.Tc)
