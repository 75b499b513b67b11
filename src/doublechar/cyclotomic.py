"""Exact cyclotomic arithmetic.

Values live in Q(zeta_e), stored as coefficient vectors in the power basis
1, z, ..., z^(phi(e)-1) of Q[x]/(Phi_e(x)) with z = zeta_e.  Arithmetic
between different orders embeds both operands into the lcm order, so
equality is canonical.  Everything is exact; no floats.

One substitution kernel, `_substitute`, rewrites sum c_i z^i as
sum c_i zeta_order^(i*step): with step = order/e it embeds into a larger
field, with step = k prime to e it is the Galois automorphism z -> z^k
(`galois`; `conjugate` is k = -1).  The inverse needs no polynomial
Euclid: the product of the other Galois conjugates of x times x is the
rational norm N(x), so 1/x is that product divided by N(x).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import attrgetter


def _lcm(a, b):
    return a * b // gcd(a, b)


_order = attrgetter("order")


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


def _substitute(coeffs, order, step):
    """sum c_i zeta_order^(i*step mod order), reduced mod Phi_order."""
    table = _power_table(order)
    acc = [0] * _degree(order)
    for i, c in enumerate(coeffs):
        if c:
            for j, r in enumerate(table[i * step % order]):
                if r:
                    acc[j] += c * r
    return acc


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
        return Cyclotomic(order, _substitute(self.coeffs, order, order // self.order))

    def galois(self, k):
        """The Galois automorphism zeta_e -> zeta_e^k; k must be prime to e."""
        e = self.order
        if gcd(k, e) != 1:
            raise ValueError(f"{k} is not prime to the order {e}")
        return Cyclotomic(e, _substitute(self.coeffs, e, k))

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
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

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
        """1/x = rest / N(x): rest is the product of galois(k) over the
        other units k mod e, and x * rest is the norm N(x), a rational."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic")
        e = self.order
        rest = Cyclotomic.from_rational(1, e)
        for k in range(2, e):
            if gcd(k, e) == 1:
                rest = rest * self.galois(k)
        return rest / (self * rest).to_rational()

    def conjugate(self):
        """Galois automorphism zeta_e -> zeta_e^(-1)."""
        return self.galois(-1)

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


def zeta(order, power=1):
    """The root of unity zeta_order^power, reduced mod Phi_order."""
    if order < 1:
        raise ValueError("order must be positive")
    return Cyclotomic(order, _power_table(order)[power % order])


def dot(xs, ys):
    """Exact sum of x * y over two equally long sequences of Cyclotomic.

    Every product is accumulated as an integer polynomial in the lcm of
    the distinct operand orders and reduced mod Phi once at the end, so
    no intermediate Cyclotomic is built; an operand already at that
    order is read as it is."""
    order = 1
    for o in set(map(_order, xs)).union(map(_order, ys)):
        order = _lcm(order, o)
    d = _degree(order)
    conv = [0] * (2 * d - 1)
    for x, y in zip(xs, ys):
        xc = x.coeffs if x.order == order else x.embed(order).coeffs
        yc = y.coeffs if y.order == order else y.embed(order).coeffs
        for i, a in enumerate(xc):
            if a:
                for j, b in enumerate(yc):
                    if b:
                        conv[i + j] += a * b
    return Cyclotomic(order, _reduce(conv, order))


CYC_ZERO = Cyclotomic(1, (0,))
CYC_ONE = Cyclotomic(1, (1,))
