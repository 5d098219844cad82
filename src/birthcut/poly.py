"""Polynomial algebra over arbitrary-precision reals.

Coefficients are stored ascending in the degree, as ``mpmath.mpf`` values.
This is the shared representation for the potential V, the critical factor Q,
the measure polynomial M and the newborn-cut scaling polynomial G.

Besides ring operations the module provides the two nonstandard pieces the
solvers need:

* Laurent data of f(x) sigma(x)^{+-1/2} at infinity for monic even-degree
  sigma (polynomial part and the x^{-j} coefficients), which encodes V', T_c
  and the contour moment conditions algebraically;
* Sturm-sequence root counting, used for the sign conditions on Q.
"""

from __future__ import annotations

from mpmath import mp, mpf


class Poly:
    """Real polynomial, coefficients ascending; the zero polynomial is ()."""

    __slots__ = ("c",)

    def __init__(self, coeffs=()):
        c = [mpf(x) for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self.c = tuple(c)

    @property
    def degree(self):
        return len(self.c) - 1

    def __bool__(self):
        return bool(self.c)

    def __len__(self):
        return len(self.c)

    def __getitem__(self, k):
        return self.c[k] if 0 <= k < len(self.c) else mpf(0)

    def __call__(self, x):
        acc = mpf(0)
        for ck in reversed(self.c):
            acc = acc * x + ck
        return acc

    def __eq__(self, other):
        return isinstance(other, Poly) and self.c == other.c

    def __hash__(self):
        return hash(self.c)

    def __add__(self, other):
        other = _as_poly(other)
        n = max(len(self.c), len(other.c))
        return Poly([self[k] + other[k] for k in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return Poly([-a for a in self.c])

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __rsub__(self, other):
        return _as_poly(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return Poly([a * mpf(other) for a in self.c])
        if not self.c or not other.c:
            return Poly()
        out = [mpf(0)] * (len(self.c) + len(other.c) - 1)
        for i, a in enumerate(self.c):
            for j, b in enumerate(other.c):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        out = Poly([1])
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def deriv(self):
        return Poly([k * a for k, a in enumerate(self.c)][1:])

    def antideriv(self, const=0):
        """Antiderivative with value `const` at 0."""
        return Poly([mpf(const)] + [a / (k + 1) for k, a in enumerate(self.c)])

    def __repr__(self):
        return "Poly(%s)" % (list(map(float, self.c)),)


def _as_poly(x):
    return x if isinstance(x, Poly) else Poly([x])


def _float_horner(coeffs, x):
    """(p(x), sum_k |c_k| |x|^k) in floats, by Horner, for p's coefficients
    as floats, highest degree first.

    The float value errs from the exact one by about 1e-16 of the second
    number, its scale. So a comparison that the float value passes by more
    than 1e-9 of that scale is the one the mpf value gives."""
    acc = size = 0.0
    for ck in coeffs:
        acc = acc * x + ck
        size = size * abs(x) + abs(ck)
    return acc, size


def monic_from_roots(roots):
    p = Poly([1])
    for r in roots:
        p = p * Poly([-mpf(r), 1])
    return p


# ----------------------------------------------------------------------------
# Laurent expansions of f/sqrt(sigma) at infinity
# ----------------------------------------------------------------------------

def sqrt_sigma_tail(sigma, jmax, alpha=None):
    """Series t with sqrt(sigma(x)) = x^s * sum_j t[j] x^-j, sigma monic deg 2s.

    With ``alpha=-0.5`` returns instead the series of x^s/sqrt(sigma).

    `laurent_split` splits it in two places: V' and T_c from M sqrt(x^2-4)
    (`potentials.build_potential`) and W's tail from M sqrt(sigma)
    (`equilibrium.veff_const_bs`). The moment conditions of the cut solves
    take the same recurrence in fixed point (`equilibrium._fixed_series`).

    sigma / x^{2s} = 1 + sum_{k=1}^{2s} w_k x^-k, and J.C.P. Miller's
    recurrence for the power (1 + w)^alpha of a series,
    t[n] = (1/n) sum_{k=1}^{min(n, 2s)} ((alpha+1) k - n) w_k t[n-k],
    takes O(jmax * deg sigma) operations (Henrici, Applied and Computational
    Complex Analysis vol. 1, 1974, section 1.6).
    """
    if alpha is None:
        alpha = mpf(1) / 2
    d = sigma.degree
    if d % 2:
        raise ValueError("sigma must have even degree")
    s = d // 2
    if sigma[d] != 1:
        raise ValueError("sigma must be monic")
    w = [sigma[d - k] for k in range(d + 1)]
    out = [mpf(1)]
    for n in range(1, jmax + 1):
        acc = mpf(0)
        for k in range(1, min(n, d) + 1):
            acc += ((alpha + 1) * k - n) * w[k] * out[n - k]
        out.append(acc / n)
    return out


def laurent_split(f, tail, s, jmax):
    """Split f(x) * x^-s * sum_j tail[j] x^-j into (polynomial part, neg part).

    Returns (P, c) with P a Poly and c[j] the coefficient of x^-j (c[0] unused).
    This realizes the contour moments (1/2pi i) oint x^{j-1} f/sqrt(sigma) = c[j]
    when ``tail`` is the series of x^s/sqrt(sigma).
    """
    pol = [mpf(0)] * (f.degree - s + 1 if f.degree >= s else 0)
    neg = [mpf(0)] * (jmax + 1)
    for k in range(f.degree + 1):
        fk = f[k]
        if fk == 0:
            continue
        for j, tj in enumerate(tail):
            if tj == 0:
                continue
            m = k - s - j
            if m >= 0:
                if m < len(pol):
                    pol[m] += fk * tj
            elif -m <= jmax:
                neg[-m] += fk * tj
    return Poly(pol), neg


# ----------------------------------------------------------------------------
# Sturm sequences
# ----------------------------------------------------------------------------

def _polydiv(a, b, tol):
    """Remainder of a/b as coefficient lists (ascending), with trimming."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db and a:
        q = a[-1] / lb
        shift = len(a) - 1 - db
        for i in range(db + 1):
            a[shift + i] -= q * b[i]
        a.pop()
        while a and abs(a[-1]) <= tol:
            a.pop()
    return a


def sturm_sequence(p: Poly):
    scale = max(abs(x) for x in p.c)
    tol = scale * mpf(2) ** (-mp.prec + 16)
    seq = [list(p.c), list(p.deriv().c)]
    while len(seq[-1]) > 1:
        rem = _polydiv(seq[-2], seq[-1], tol)
        if not rem:
            break
        seq.append([-x for x in rem])
    return seq


def _sign_changes(seq, x):
    signs = []
    for coeffs in seq:
        acc = mpf(0)
        for ck in reversed(coeffs):
            acc = acc * x + ck
        if acc != 0:
            signs.append(1 if acc > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_real_roots(p: Poly, lo, hi):
    """Number of distinct real roots of p in (lo, hi]."""
    if p.degree <= 0:
        return 0
    seq = sturm_sequence(p)
    return _sign_changes(seq, mpf(lo)) - _sign_changes(seq, mpf(hi))


def isolate_real_roots(p: Poly, lo, hi):
    """Disjoint intervals (each containing exactly one root of p) in (lo, hi]."""
    max_depth = 80                     # halvings of (lo, hi] at most
    seq = sturm_sequence(p)

    def count(a, b):
        return _sign_changes(seq, a) - _sign_changes(seq, b)

    out = []
    stack = [(mpf(lo), mpf(hi), count(mpf(lo), mpf(hi)), 0)]
    while stack:
        a, b, n, depth = stack.pop()
        if n == 0:
            continue
        if n == 1 or depth >= max_depth:
            out.append((a, b))
            continue
        m = (a + b) / 2
        nl = count(a, m)
        stack.append((a, m, nl, depth + 1))
        stack.append((m, b, n - nl, depth + 1))
    return sorted(out)
