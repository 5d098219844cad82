"""Gauss-Legendre quadrature at working precision.

Nodes and weights are computed by Newton iteration on the Legendre recurrence
in Python-integer fixed point with 32 guard bits, seeded with roots found in
floats by the same recurrence (`legendre_seeds`, so no numpy is imported),
and cached per (order, precision); a rule at a new precision is rounded from
a finer cached rule of its order, or refined by Newton from a coarser one.
Measured on the 64-point rule at 136-320 bits, it integrates x^{2j}, j < 64,
to 0.2-0.4 units of 2^-prec, where an mpf Newton iteration was off by 2-4
units. Both Newton loops, the float one and the integer one, raise
ConvergenceError where a root takes more than NEWTON_CAP steps.

The adaptive rules double their node count until two successive values
differ by at most rel_tol * sum |w f| (the finer rule applied to |f|), and
raise ConvergenceError at their cap. Unlike |I|, that scale does not shrink
when the integral cancels to zero, as vanishing and gap conditions do.
Integrands with square-root endpoint behavior should be fed through a
substitution first (the callers in this package do). The bracket rule forms
its cosine nodes in the same fixed point, one `cos_sin_fixed` per level and
an integer rotation per node, and rounds each node once; it calls no
`mp.cos`.
"""

from __future__ import annotations

import math

from mpmath import mp, mpf
from mpmath.libmp import to_fixed
from mpmath.libmp.libelefun import cos_sin_fixed, pi_fixed

_CACHE = {}
GUARD_BITS = 32        # fixed-point fraction bits beyond the working precision
TOL_DIGITS = 6         # the adaptive rules' rel_tol is 10^(TOL_DIGITS - dps)
NEWTON_CAP = 60        # Newton steps per Legendre root before ConvergenceError


class ConvergenceError(RuntimeError):
    """A numerical iteration reached its cap without meeting its tolerance."""


def _legendre(n, X, F):
    """(P_{n-1}(x), P_n(x)) times 2^F, for X = x 2^F, by the recurrence
    (k + 1) P_{k+1} = (2k + 1) x P_k - k P_{k-1} in fixed point; n >= 1."""
    q, p = 1 << F, X
    for k in range(1, n):
        q, p = p, ((2 * k + 1) * (X * p >> F) - k * q) // (k + 1)
    return q, p


def _legendre_slope(n, X, F):
    """(P_n(x), P_n'(x)) times 2^F, with P_n' = n (x P_n - P_{n-1})/(x^2 - 1)."""
    q, p = _legendre(n, X, F)
    return p, (n * ((X * p >> F) - q) << F) // ((X * X >> F) - (1 << F))


def legendre_seeds(n: int):
    """The ceil(n/2) non-negative roots of P_n in floats, ascending; 0.0 is
    among them when n is odd.

    Each root starts from Tricomi's approximation cos(pi (i + 3/4)/(n + 1/2))
    and is refined by float Newton on the recurrence of `_legendre`;
    ConvergenceError if a root takes more than NEWTON_CAP steps."""
    roots = []
    for i in range(n // 2):
        x = math.cos(math.pi * (i + 0.75) / (n + 0.5))
        for _ in range(NEWTON_CAP):
            q, p = 1.0, x
            for k in range(1, n):
                q, p = p, ((2 * k + 1) * x * p - k * q) / (k + 1)
            dx = p * (x * x - 1) / (n * (x * p - q))
            x -= dx
            if abs(dx) < 1e-15:
                break
        else:
            raise ConvergenceError("legendre_seeds: root %d of P_%d not found "
                                   "in %d float Newton steps (last %r)"
                                   % (i, n, NEWTON_CAP, x))
        roots.append(x)
    if n % 2:
        roots.append(0.0)
    return roots[::-1]


def gauss_legendre(n: int):
    """Nodes and weights on [-1, 1] at the current precision, ascending.

    Newton runs on the ceil(n/2) non-negative roots only; the rule is
    symmetric, so the others are their mirror images. It runs in
    Python-integer fixed point with F = prec + GUARD_BITS fraction bits; the
    weights are 2 / ((1 - x^2) P_n'(x)^2), formed in the same integers and
    rounded once.

    A rule is built once per (order, precision) and reused across
    precisions: if a finer rule of the order is cached, it is rounded to the
    working precision; else Newton starts from the finest coarser rule
    cached (1 pass per root from 256 to 320 bits), and only without either
    from the float roots of `legendre_seeds` (3 passes at 320 bits). Each
    root stops on the predicted size of its next step, and its last pass
    gives the weight too, by a second-order Taylor step of P_n'. Either way
    the rule equals a fresh build but where a node or weight lies within
    2^(GUARD_BITS/2) units of 2^-F of a rounding boundary at the working
    precision.
    """
    key = (n, mp.prec)
    got = _CACHE.get(key)
    if got is None:
        got = _CACHE[key] = _build_rule(n)
    return got


def _build_rule(n: int):
    """The `gauss_legendre` rule of order n at the working precision, from
    the cached rules of order n where there are any; ConvergenceError if a
    root takes more than NEWTON_CAP steps."""
    held = sorted(p for m, p in _CACHE if m == n)
    finer = [p for p in held if p > mp.prec]
    if finer:
        xs, ws = _CACHE[n, finer[0]]
        return [+x for x in xs], [+w for w in ws]
    F = mp.prec + GUARD_BITS
    if held:
        # the non-negative nodes of the finest coarser rule, ascending
        starts = [int(mp.ldexp(x, F)) for x in _CACHE[n, held[-1]][0][n // 2:]]
    else:
        starts = [(int(math.ldexp(s, 53)) << F) >> 53
                  for s in legendre_seeds(n)]
    half, hw = [], []
    for X in starts:
        for _ in range(NEWTON_CAP):
            p, dp = _legendre_slope(n, X, F)
            dx = (p << F) // dp
            X0, X = X, X - dx
            D = (1 << F) - (X * X >> F)          # (1 - x^2) 2^F
            # quadratic convergence: since P''/P' = 2x/(1 - x^2) at a root,
            # the next step would be (x/(1 - x^2)) dx^2; stop where that is
            # below 2^(GUARD_BITS/2) units of 2^-F
            if abs(X) * dx * dx < D << (F + GUARD_BITS // 2):
                break
        else:
            raise ConvergenceError(
                "gauss_legendre: a root of P_%d near %s not found in %d "
                "Newton steps at %d bits" % (
                    n, mp.nstr(mpf((X, -F)), 17), NEWTON_CAP, mp.prec))
        # P'(x) = P'(x0) - P''(x0) dx + P'''(x0) dx^2/2, P'' and P''' from
        # Legendre's equation (1 - x^2) P'' = 2x P' - n(n+1) P and its
        # derivative: the last pass gives the weight
        D0 = (1 << F) - (X0 * X0 >> F)
        ddp = ((2 * X0 * dp >> F) - n * (n + 1) * p << F) // D0
        d3p = ((4 * X0 * ddp >> F) - (n * (n + 1) - 2) * dp << F) // D0
        dp += ((d3p * dx >> F + 1) - ddp) * dx >> F
        half.append(mpf((X, -F)))
        w = (2 << (4 * F)) // (D * dp * dp)
        hw.append(mpf((w, -F)))
    mirror = slice(n % 2, None)
    xs = [-x for x in reversed(half[mirror])] + half
    ws = list(reversed(hw[mirror])) + hw
    return xs, ws


def panel_nodes(a, b, panels: int, n: int = 64):
    """Nodes and weights of a composite rule on [a, b]."""
    xs, ws = gauss_legendre(n)
    a, b = mpf(a), mpf(b)
    h = (b - a) / panels
    nodes, weights = [], []
    for i in range(panels):
        lo = a + i * h
        mid = lo + h / 2
        half = h / 2
        for x, w in zip(xs, ws):
            nodes.append(mid + half * x)
            weights.append(half * w)
    return nodes, weights


def _gl_sums(f, a, b, panels, n):
    """Composite GL value and sum |w f| of the same pass."""
    nodes, weights = panel_nodes(a, b, panels, n)
    acc, mass = mpf(0), mpf(0)
    for x, w in zip(nodes, weights):
        term = w * f(x)
        acc += term
        mass += abs(term)
    return acc, mass


def _refine(rule, n, cap, name):
    """Double n until rule(n) = (value, sum |w f|) changes by at most
    rel_tol * sum |w f|; ConvergenceError if n would pass cap first."""
    rel_tol = mpf(10) ** (TOL_DIGITS - mp.dps)
    prev, _ = rule(n)
    change = mass = mp.inf
    while n < cap:
        n *= 2
        cur, mass = rule(n)
        change = abs(cur - prev)
        if change <= rel_tol * mass:
            return cur
        prev = cur
    raise ConvergenceError("%s: no convergence at cap %d (last change %s, "
                           "scale %s)" % (name, cap, mp.nstr(change, 3),
                                          mp.nstr(mass, 3)))


def integrate_doubling(f, a, b, n=64, max_panels=64):
    """Composite n-point GL on [a, b], doubling the panel count from 1 until
    the change is at most rel_tol * sum |w f|; ConvergenceError if
    max_panels is reached first."""
    return _refine(lambda panels: _gl_sums(f, a, b, panels, n), 1, max_panels,
                   "integrate_doubling")


def integrate_bracket(f, a, b, n_start=32, max_n=4096):
    """integral_a^b f(x) / sqrt((x-a)(b-x)) dx by the cosine substitution.

    x = (a+b)/2 + ((b-a)/2) cos(theta) turns the weight into d(theta); the
    trapezoid rule in theta on [0, pi] is then spectrally accurate for smooth
    f (Trefethen & Weideman, SIAM Rev. 56, 2014). Its nodes i pi/n nest: the
    rule of 2n nodes reuses every value of the rule of n and evaluates f
    only at the n new odd nodes, so a run that ends at n makes n + 1 calls.
    The end nodes are a and b themselves, so f must be finite there (it is
    smooth on [a, b]). The node count doubles from n_start until the change
    is at most rel_tol * sum |w f|; ConvergenceError if max_n is reached
    first.

    The nodes are formed in Python-integer fixed point: a and b exactly,
    the cosines at W = prec + GUARD_BITS fraction bits. A level takes one
    `cos_sin_fixed` for its step angle and walks its new nodes by integer
    rotation, so with max_n = 4096 the cosines stay within about 2^11 units
    of 2^-W. Each node reaches f as an mpf rounded once.
    """
    a, b = mpf(a), mpf(b)
    W = mp.prec + GUARD_BITS
    # x = (MID + HALF cos 2^W) 2^-(E + W + 1), with a and b exact
    E = max(0, -a._mpf_[2], -b._mpf_[2])
    A, B = to_fixed(a._mpf_, E), to_fixed(b._mpf_, E)
    MID, HALF, scale = A + B << W, B - A, -(E + W + 1)
    held = []     # [sum f, sum |f|] over the last rule's nodes, ends halved

    def rule(nn):
        if held:
            # `_refine` doubles n: the even nodes of nn are the last rule's
            fs, new = [], range(1, nn, 2)
        else:
            fs, new = [f(a) / 2, f(b) / 2], range(1, nn)
        # the node at i pi/nn, then rotations by the step between new nodes
        cos, sin = cos_sin_fixed(pi_fixed(W) // nn, W)
        step_c, step_s = cos, sin
        if new.step == 2:
            step_c, step_s = (cos * cos - sin * sin) >> W, (2 * cos * sin) >> W
        for _ in new:
            fs.append(f(mpf((MID + HALF * cos, scale))))
            cos, sin = ((cos * step_c - sin * step_s) >> W,
                        (sin * step_c + cos * step_s) >> W)
        # the last level's sums and the new values, added exactly and
        # rounded once
        acc = mp.fsum(held[:1] + fs)
        mass = mp.fsum(held[1:] + fs, absolute=True)
        held[:] = acc, mass
        h = mp.pi / nn
        return acc * h, mass * h

    return _refine(rule, n_start, max_n, "integrate_bracket")
