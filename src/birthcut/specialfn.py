"""High-precision special functions for the two-cut parametrization.

Conventions: the elliptic parameter m is the squared modulus, i.e. the m in
integral_0^sn dy / sqrt((1-y^2)(1-m y^2)). theta1 has a period-1 argument
and is only needed at z = iv with nome parameter i tau, tau = K'/K > 0:

    theta1(iv | i tau)/i = 2 sum_{n>=0} (-1)^n q^{(n+1/2)^2} sinh((2n+1) pi v),
    q = e^{-pi tau},

so that with u_inf = i F_inf the two-cut gamma formula reads
gamma = sqrt((d-b)(c-a))/(4K) e^{pi F_inf^2/(K K')}
  * theta1'(0) / (theta1(i F_inf/K)/i).

Every elliptic integral here comes from one arithmetic-geometric mean
(`agm_fixed`): the complete K, E and Pi, and, through the descending
Landen amplitude that rides on the same sequence, the incomplete F and E of
the two-cut abelian map (see `equilibrium`). No Carlson-form or other
second route is used. The sequence runs in fixed point on Python integers,
with guard bits sized from the inputs so that each result rounds as the
same sequence in mpf at 20 guard bits does. `agm_integrals` closes K, E, F
and E(phi) in mpf; Pi is closed only in integers, by the two-cut Newton
evaluation's gap moments (`equilibrium._gap_moments`). The module
also owns the conventions and the one real theta1 series behind
`theta1_axis` and `theta1_prime0`.
"""

from __future__ import annotations

from math import isqrt
from typing import NamedTuple, Optional

from mpmath import mp, mpf

from .poly import _fixed
from .quadrature import ConvergenceError


class AGMIntegrals(NamedTuple):
    K: mpf
    E: mpf
    F: Optional[mpf]        # F(phi|m), where the amplitude is given
    E_phi: Optional[mpf]    # E(phi|m), where the amplitude is given


def agm_integrals(mc, amplitude=None) -> AGMIntegrals:
    """K and E at parameter m = 1 - mc, for 0 < mc <= 1; with
    amplitude = (x, y), x, y >= 0 not both 0, also F(phi|m) and E(phi|m) at
    phi = atan2(y, x) in [0, pi/2].

    One arithmetic-geometric mean sequence a_j, g_j from (1, sqrt(mc)) gives
    them all (DLMF 19.8.1, 19.8.6 and section 19.8(ii); Abramowitz & Stegun
    17.6.3 and section 17.6):

        K = pi / (2 M),  E = K (1 - sum_j 2^(j-1) c_j^2),  c_0^2 = m,
        F(phi|m) = lim phi_j / (2^j a_j),
        E(phi|m) = (E/K) F(phi|m) + sum_{j>=1} c_j sin phi_j,

    with c_{j+1} = (a_j - g_j)/2 and the descending Landen amplitude
    phi_{j+1} = phi_j + arctan((g_j/a_j) tan phi_j), phi_0 = phi, on the
    branch within pi/2 of phi_j. That step multiplies e^{i phi_j} by
    a_j cos phi_j + i g_j sin phi_j, so phi_j is carried as the unnormalised
    vector (x_j, y_j) = |.| e^{i phi_j}, folded into x_j >= 0 with a count
    of half-turns, and no tangent is formed: an amplitude near pi/2 comes in
    as a small x and keeps its accuracy. Taking the complementary parameter
    keeps full relative accuracy as m -> 1, where K is log-singular. Each
    sum converges quadratically, in about log2(prec) steps.

    The sequence runs on Python integers in W-bit fixed point (Brent &
    Zimmermann, Modern Computer Arithmetic, section 4.8): products shifted
    down by W, quotients by floor division, square roots by `math.isqrt`.
    The vector (x_j, y_j) is scaled by a power of 2 after each step so that
    its larger coordinate keeps W bits; its direction is all that is read.
    W is the working precision (20 guard bits) plus 32, plus the bits that
    an absolute error of 2^-W costs where a quantity is small: -mag(mc) for
    sqrt(mc), and mag(x) - mag(y) for y_j and sin phi_j when phi is small.
    Only K = pi/(2 a), the sums' closing products, the atan2 of the vector
    and the rounding to the caller's precision are mpf operations.
    """
    mc = mpf(mc)
    if not 0 < mc <= 1:
        raise ValueError("need 0 < mc <= 1")
    with mp.workprec(mp.prec + 20):
        W = mp.prec + 32 + max(0, -mp.mag(mc))
        xy = None
        if amplitude is not None:
            x, y = (mpf(v) for v in amplitude)
            if x < 0 or y < 0 or not (x or y):
                raise ValueError("amplitude needs x, y >= 0, not both 0")
            if x and y:
                W += max(0, mp.mag(x) - mp.mag(y))
            # a shared power of 2 puts the larger coordinate at W bits
            scale = W - max(mp.mag(x), mp.mag(y))
            xy = _fixed(x, scale), _fixed(y, scale)
        one = 1 << W
        a, csum, _, steps, landen = agm_fixed(
            W, isqrt(_fixed(mc, 2 * W)), (one - _fixed(mc, W)) >> 1,
            1 << (W - mp.prec), xy=xy)
        a = mpf((a, -W))
        K = mp.pi / (2 * a)
        E = K * mpf((one - csum, -W))
        F = E_phi = None
        if amplitude is not None:
            x, y, turns, e_sum = landen
            F = mp.ldexp(mp.atan2(y, x) + turns * mp.pi, -steps) / a
            E_phi = E / K * F + mpf((e_sum, -W))
    return AGMIntegrals(*(v if v is None else +v for v in (K, E, F, E_phi)))


def agm_fixed(W, g, csum, tol, p2=None, xy=None):
    """The AGM sequence of `agm_integrals` on W-bit fixed-point integers:
    a_0 = 1, g_0 = g 2^-W = sqrt(mc) and csum = (m/2) 2^W; with
    p2 = (1 - n) 2^W, n < 1, also the Pi sum, and with xy = (x, y), integers
    of about W bits, the Landen amplitude phi = atan2(y, x). Stops once
    |c_j| and |Q_j| are at most tol; ConvergenceError after W steps.

    Returns (a, csum, qsum, steps, landen) over 2^W: a the mean,
    csum = sum_j 2^(j-1) c_j^2, qsum = sum_j Q_j (None without p2), and
    landen = (x, y, turns, e_sum) (None without xy), phi_steps =
    atan2(y, x) + turns pi and e_sum = sum_{j>=1} +-c_j sin phi_j. The
    caller forms K = pi/(2 a) and the rest: `agm_integrals` K, E, F and
    E(phi) in mpf, `equilibrium._gap_moments` K, E and
    Pi(n|m) = pi/(4 a) (2 + n/(1-n) qsum) (DLMF 19.8.6) in integers."""
    one = 1 << W
    a = one
    qsum = landen = None
    if p2 is not None:
        p = isqrt(p2 << W)
        q = qsum = one
    if xy is not None:
        x, y = xy
        turns = 0               # phi_j = atan2(y, x) + turns pi
        e_sum = 0
    for steps in range(1, W + 1):
        ag = a * g >> W
        if p2 is not None:
            q = q * (p2 - ag) // (2 * (p2 + ag))
            p = ((p2 + ag) << W) // (2 * p)
            p2 = p * p >> W
            qsum += q
        c = (a - g) >> 1
        if xy is not None:
            x, y, rising = a * x * x - g * y * y, (a + g) * x * y, y > 0
            turns *= 2
            if x < 0:           # phi_j passed an odd multiple of pi/2
                x, y = -x, -y
                turns += 1 if rising else -1
            shift = max(x.bit_length(), y.bit_length()) - W
            x, y = x >> shift, y >> shift
            c_sin = c * ((y << W) // isqrt(x * x + y * y)) >> W
            e_sum += c_sin if turns % 2 == 0 else -c_sin
        a, g = (a + g) >> 1, isqrt(a * g)
        csum += c * c << (steps - 1) >> W
        if abs(c) <= tol and (p2 is None or abs(q) <= tol):
            break
    else:
        raise ConvergenceError("AGM did not converge in %d steps" % W)
    if xy is not None:
        landen = x, y, turns, e_sum
    return a, csum, qsum, steps, landen


def _theta1_axis_series(tau, c, w0):
    """2 sum_{n>=0} (-1)^n q^{(n+1/2)^2} w_n, q = e^{-pi tau}, for weights
    w_{n+1} = 2 c w_n - w_{n-1}, w_{-1} = -w_0; every factor by recurrence.
    Truncated once a term is at most 2^(8-p) of the largest term and of the
    partial sum, p the working precision plus 20 guard bits;
    ConvergenceError if 200 terms do not."""
    tau = mpf(tau)
    if tau <= 0:
        raise ValueError("theta1 on the imaginary axis requires tau > 0")
    with mp.workprec(mp.prec + 20):
        tol = mpf(2) ** (-mp.prec + 8)
        power = mp.exp(-mp.pi * tau / 4)                # q^{1/4}
        q2 = step = power ** 8                          # q^2
        w_prev, w = -w0, w0
        acc = scale = mpf(0)
        for n in range(200):
            term = power * w
            acc += -term if n % 2 else term
            scale = max(scale, abs(term))
            if n >= 1 and abs(term) <= tol * max(scale, abs(acc)):
                break
            power *= step           # q^{(n+3/2)^2} = q^{(n+1/2)^2} q^{2n+2}
            step *= q2
            w_prev, w = w, 2 * c * w - w_prev
        else:
            raise ConvergenceError("theta1 series: 200 terms at tau = %s"
                                   % mp.nstr(tau, 8))
    return 2 * acc                  # rounds once to the working precision


def theta1_axis(v, tau):
    """theta1(iv | i tau)/i for real v and tau > 0 (module conventions),
    with sinh((2n+1) pi v) by the recurrence of cosh(2 pi v)."""
    with mp.workprec(mp.prec + 20):
        x = mp.pi * mpf(v)
        c, w0 = mp.cosh(2 * x), mp.sinh(x)
    return _theta1_axis_series(tau, c, w0)


def theta1_prime0(tau):
    """theta1'(0 | i tau) = 2 pi sum_{n>=0} (-1)^n (2n+1) q^{(n+1/2)^2}, the
    v-derivative of `theta1_axis` at 0."""
    return mp.pi * _theta1_axis_series(tau, 1, mpf(1))
