"""Polynomial algebra over arbitrary-precision reals.

Coefficients are stored ascending in the degree, as ``mpmath.mpf`` values.
This is the shared representation for the potential V, the critical factor Q,
the measure polynomial M and the newborn-cut scaling polynomial G.

Besides ring operations the module provides the two nonstandard pieces the
solvers need:

* Laurent data of f(x) sigma(x)^{+-1/2} at infinity for monic even-degree
  sigma (polynomial part and the x^{-j} coefficients), which encodes V', T_c,
  the contour moment conditions and W's tail algebraically. It is one
  integer layer: polynomials as Python integers over 2^W (`_exact`,
  `_fixed_monic`, `_int_product`, `_fixed_horner`, `_fixed_deflate`),
  Miller's series of sigma^(+-1/2) (`_fixed_series`) and its split
  (`_fixed_split`), shared by `equilibrium._cut_system`,
  `equilibrium.veff_const_bs` and `potentials.build_potential`;
* Sturm-sequence root counting, used for the sign conditions on Q.
"""

from __future__ import annotations

from mpmath import mp, mpf
from mpmath.libmp import to_fixed

FLOAT_MARGIN = 1e-9    # of its scale, by which `_float_horner` decides a test


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
    than `FLOAT_MARGIN` of that scale is the one the mpf value gives."""
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
# Integer polynomials and Laurent series of sigma^(+-1/2) at infinity
# ----------------------------------------------------------------------------

def _exact(f: Poly):
    """(S, a) with f(x) = 2^-S sum_k a[k] x^k exactly, a Python integers."""
    S = max([0] + [-v._mpf_[2] for v in f.c])
    return S, [to_fixed(v._mpf_, S) for v in f.c]


def _int_product(p, q):
    """The coefficients of the product of two integer polynomials."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _fixed_monic(X, W):
    """The coefficients over 2^W, ascending, of the monic polynomial with
    the roots X 2^-W."""
    S = [1 << W]
    for R in X:
        S = ([-(R * S[0] >> W)]
             + [S[k - 1] - (R * S[k] >> W) for k in range(1, len(S))]
             + [S[-1]])
    return S


def _fixed_series(S, terms, W, root=False):
    """t_0..t_terms over 2^W of x^s/sqrt(sigma) = sum_n t_n x^-n, or with
    root=True of sqrt(sigma)/x^s, for the monic sigma of degree 2s with
    coefficients S over 2^W.

    sigma/x^{2s} = 1 + sum_{k=1}^{2s} w_k x^-k, and J.C.P. Miller's
    recurrence for the power (1 + w)^alpha of a series,
    t_n = (1/n) sum_{k=1}^{min(n, 2s)} ((alpha + 1) k - n) w_k t_{n-k}
    (Henrici, Applied and Computational Complex Analysis vol. 1, 1974,
    section 1.6), at alpha = (a - 2)/2 reads
    t_n = (1/2n) sum_k (a k - 2n) w_k t_{n-k}: a = 1 for the power -1/2,
    a = 3 for 1/2. Each t_n is one floor division, so at W = 0 a series
    with integer terms (sqrt(x^2 - 4)/x) is exact."""
    d = len(S) - 1
    a = 3 if root else 1
    t = [1 << W]
    for n in range(1, terms + 1):
        acc = sum((a * k - 2 * n) * S[d - k] * t[n - k]
                  for k in range(1, min(n, d) + 1))
        t.append(acc // (n << W + 1))
    return t


def _fixed_split(f, t, s, neg):
    """(P, c) of the integer polynomial f times x^-s sum_j t_j x^-j, s of
    either sign: P[k] its x^k coefficient, 0 <= k <= deg f - s, and c[l]
    its x^-l coefficient, 1 <= l <= neg (c[0] = 0), each the exact sum of
    the products f_k t_j, unshifted. t needs deg f - s + neg + 1 terms.

    With t the series of x^s/sqrt(sigma) this is V'/sqrt(sigma): M and the
    contour moments c_l = (1/2 pi i) oint x^{l-1} V'/sqrt(sigma)."""
    D = len(f) - 1
    P = [sum(f[k] * t[k - s - m] for k in range(max(0, m + s), D + 1))
         for m in range(D - s + 1)]
    c = [0] + [sum(f[k] * t[k - s + l] for k in range(max(0, s - l), D + 1))
               for l in range(1, neg + 1)]
    return P, c


def _fixed_horner(C, E, W):
    """The polynomial with coefficients C over 2^W, ascending, at E 2^-W."""
    acc = 0
    for ck in reversed(C):
        acc = (acc * E >> W) + ck
    return acc


def _fixed_deflate(S, E, W):
    """The quotient of the polynomial S over 2^W by x - E 2^-W, synthetic
    division with the remainder dropped: for a root, the product of the
    other factors."""
    q = [S[-1]]
    for ck in reversed(S[1:-1]):
        q.append(ck + (E * q[-1] >> W))
    return q[::-1]


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
