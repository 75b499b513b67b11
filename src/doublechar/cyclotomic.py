"""Exact cyclotomic arithmetic.

Values live in Q(zeta_e), stored as coefficient vectors in the power basis
1, z, ..., z^(phi(e)-1) of Q[x]/(Phi_e(x)) with z = zeta_e.  Arithmetic
between different orders embeds both operands into the lcm order, so
equality is canonical.  Everything is exact; no floats.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd


def _lcm(a, b):
    return a * b // gcd(a, b)


def _norm_num(x):
    # collapse integral Fractions to plain ints; keeps hot loops on int ops
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    return x


def _poly_div_exact(num, den):
    """Quotient of integer polynomials (ascending coeffs), den monic, exact."""
    num = list(num)
    dd = len(den) - 1
    q = [0] * (len(num) - dd)
    for i in range(len(num) - dd - 1, -1, -1):
        c = num[i + dd]
        if c:
            q[i] = c
            for j in range(dd + 1):
                num[i + j] -= c * den[j]
    if any(num[:dd]):
        raise ArithmeticError("non-exact polynomial division")
    return q


@lru_cache(maxsize=None)
def cyclotomic_polynomial(e):
    """Integer coefficients of Phi_e, ascending degree, monic."""
    if e < 1:
        raise ValueError("order must be positive")
    if e == 1:
        return (-1, 1)
    poly = [0] * (e + 1)
    poly[0], poly[e] = -1, 1
    for d in range(1, e):
        if e % d == 0:
            poly = _poly_div_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


@lru_cache(maxsize=None)
def _degree(e):
    return len(cyclotomic_polynomial(e)) - 1


@lru_cache(maxsize=None)
def _power_table(e):
    """zeta_e^k reduced mod Phi_e for k = 0..e-1, as integer tuples."""
    phi = cyclotomic_polynomial(e)
    d = len(phi) - 1
    rows = []
    cur = [0] * d
    cur[0] = 1
    for _ in range(e):
        rows.append(tuple(cur))
        lead = cur[d - 1]
        nxt = [0] + cur[: d - 1]
        if lead:
            for j in range(d):
                nxt[j] -= lead * phi[j]
        cur = nxt
    return tuple(rows)


def _reduce(vec, e):
    """Reduce an (ascending) coefficient vector mod Phi_e."""
    phi = cyclotomic_polynomial(e)
    d = len(phi) - 1
    v = list(vec)
    for i in range(len(v) - 1, d - 1, -1):
        c = v[i]
        if c:
            v[i] = 0
            base = i - d
            for j in range(d):
                v[base + j] -= c * phi[j]
    v = v[:d]
    v += [0] * (d - len(v))
    return v


class Cyclotomic:
    """An element of Q(zeta_e) in the power basis of Phi_e."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs):
        d = _degree(order)
        # exact int check first: the ABC isinstance in _norm_num is slow
        coeffs = tuple(c if type(c) is int else _norm_num(c) for c in coeffs)
        if len(coeffs) != d:
            raise ValueError(f"need {d} coefficients for order {order}, got {len(coeffs)}")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *a):
        raise AttributeError("Cyclotomic is immutable")

    @classmethod
    def from_rational(cls, x, order=1):
        c = [0] * _degree(order)
        c[0] = _norm_num(Fraction(x)) if not isinstance(x, int) else x
        return cls(order, c)

    def embed(self, order):
        """Rewrite in Q(zeta_order); requires self.order | order."""
        if order == self.order:
            return self
        if order % self.order:
            raise ValueError("embedding target must be a multiple of the order")
        step = order // self.order
        table = _power_table(order)
        acc = [0] * _degree(order)
        for i, c in enumerate(self.coeffs):
            if c:
                row = table[i * step]
                for j, r in enumerate(row):
                    if r:
                        acc[j] += c * r
        return Cyclotomic(order, acc)

    def _coerce(self, other):
        if isinstance(other, Cyclotomic):
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclotomic.from_rational(other, 1)
        return None

    def _aligned(self, other):
        L = _lcm(self.order, other.order)
        return self.embed(L), other.embed(L), L

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b, L = self._aligned(other)
        return Cyclotomic(L, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.order, [-x for x in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b, L = self._aligned(other)
        return Cyclotomic(L, [x - y for x, y in zip(a.coeffs, b.coeffs)])

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyclotomic(self.order, [c * other for c in self.coeffs])
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return dot((self,), (other,))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(1, 1) / other
            return Cyclotomic(self.order, [c * q for c in self.coeffs])
        if isinstance(other, Cyclotomic):
            return self * other.inverse()
        return NotImplemented

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = Cyclotomic.from_rational(1, self.order)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic")
        phi = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        g, u = _poly_xgcd(list(self.coeffs), phi)
        if len(g) != 1:
            raise ArithmeticError("element not invertible mod Phi_e")
        inv = [Fraction(c, 1) / g[0] for c in u]
        return Cyclotomic(self.order, _reduce(inv, self.order))

    def conjugate(self):
        """Galois automorphism zeta_e -> zeta_e^(-1)."""
        e = self.order
        table = _power_table(e)
        acc = [0] * _degree(e)
        for i, c in enumerate(self.coeffs):
            if c:
                row = table[(e - i) % e]
                for j, r in enumerate(row):
                    if r:
                        acc[j] += c * r
        return Cyclotomic(e, acc)

    def is_zero(self):
        return not any(self.coeffs)

    def __bool__(self):
        return not self.is_zero()

    def is_rational(self):
        return not any(self.coeffs[1:])

    def to_rational(self):
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.coeffs[0])

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b, _ = self._aligned(other)
        return a.coeffs == b.coeffs

    __hash__ = None

    def __repr__(self):
        if self.is_rational():
            return str(self.coeffs[0])
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                z = f"z{self.order}" if i == 1 else f"z{self.order}^{i}"
                if c == 1:
                    parts.append(z)
                elif c == -1:
                    parts.append(f"-{z}")
                else:
                    parts.append(f"{c}*{z}")
        out = parts[0]
        for p in parts[1:]:
            out += p if p.startswith("-") else "+" + p
        return out


def _poly_trim(p):
    while p and (p[-1] == 0):
        p.pop()
    return p


def _poly_divmod(a, b):
    a = [Fraction(c) for c in a]
    b = [Fraction(c) for c in b]
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    inv_lead = 1 / b[-1]
    while len(a) >= len(b) and _poly_trim(a):
        if len(a) < len(b):
            break
        c = a[-1] * inv_lead
        k = len(a) - len(b)
        q[k] = c
        for j in range(len(b)):
            a[k + j] -= c * b[j]
        a.pop()
    return _poly_trim(q), _poly_trim(a)


def _poly_xgcd(a, b):
    """Return (g, u) with u*a = g mod b and g a nonzero constant, for gcd(a,b)=1."""
    r0, r1 = [Fraction(c) for c in a], [Fraction(c) for c in b]
    s0, s1 = [Fraction(1)], []
    _poly_trim(r0)
    _poly_trim(r1)
    while r1:
        q, r = _poly_divmod(r0, r1)
        s = _poly_sub(s0, _poly_mul(q, s1))
        r0, r1 = r1, r
        s0, s1 = s1, s
    return r0, s0


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _poly_trim(out)


def _poly_sub(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    return _poly_trim(out)


def zeta(order, power=1):
    """The root of unity zeta_order^power, reduced mod Phi_order."""
    if order < 1:
        raise ValueError("order must be positive")
    return Cyclotomic(order, _power_table(order)[power % order])


def dot(xs, ys):
    """Exact sum of x * y over two equally long sequences of Cyclotomic.

    Every product is accumulated as an integer polynomial in the lcm
    order and reduced mod Phi once at the end, so no intermediate
    Cyclotomic is built."""
    order = 1
    for v in xs:
        order = _lcm(order, v.order)
    for v in ys:
        order = _lcm(order, v.order)
    d = _degree(order)
    conv = [0] * (2 * d - 1)
    for x, y in zip(xs, ys):
        yc = y.embed(order).coeffs
        for i, a in enumerate(x.embed(order).coeffs):
            if a:
                for j, b in enumerate(yc):
                    if b:
                        conv[i + j] += a * b
    return Cyclotomic(order, _reduce(conv, order))


CYC_ZERO = Cyclotomic(1, (0,))
CYC_ONE = Cyclotomic(1, (1,))
