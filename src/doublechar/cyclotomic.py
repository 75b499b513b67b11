"""Exact cyclotomic arithmetic.

Values live in Q(zeta_e), stored as coefficient vectors in the power basis
1, z, ..., z^(phi(e)-1) of Q[x]/(Phi_e(x)) with z = zeta_e.  Everything is
exact.  Every stored coefficient is canonical: an int wherever its value is
integral and a Fraction otherwise, never a float or a bool, so equal values
of one order have equal coefficient tuples and print alike.

Phi_e comes from the Moebius product prod_(d | e) (1 - x^(e/d))^mu(d),
one shifted subtraction or running sum per squarefree divisor d, never
from dividing x^e - 1 by every Phi_d (`cyclotomic_polynomial`).

The operands of +, -, ==, * and `dot` share one order e and meet on their
coefficient tuples: entry by entry, or as one convolution reduced mod Phi_e
(`_convolve`).  The convolution reads each operand as its nonzero terms
(i, c_i) (`_terms`), so a caller that multiplies one value many times
can extract its terms once (`CharacterTable._verify`, and the fusion
projection of `WeightSystem._multiplicities`).  A rational operand
(an int, a Fraction or an order-1 Cyclotomic) joins any order, its vector
(c,) being a prefix of an order-e vector; any other pair of orders raises
ValueError.

One substitution kernel, `_substitute`, rewrites sum c_i z^i as
sum c_i zeta_order^(i*step): with step = order/e it embeds into a larger
field, with step = k prime to e it is the Galois automorphism z -> z^k
(`galois`; `conjugate` is k = -1).  The inverse needs no polynomial
Euclid: the product of the other Galois conjugates of x times x is the
rational norm N(x), so 1/x is that product divided by N(x).

`rref` and `nullspace` are the one exact elimination over Q and
Q(zeta_e) alike: sparse Gauss-Jordan on rows that are dicts column ->
nonzero entry, each entry a Fraction or a Cyclotomic.  (F_p keeps its
own dense `modp.rref`, where every operation is reduced mod p.)
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, compress, zip_longest
from math import gcd
from operator import attrgetter, sub
from types import MappingProxyType

from .errors import Frozen, is_int
from .modp import factorize

_order = attrgetter("order")


def _exact(c):
    """c in canonical form: an int, or a Fraction unless it is integral."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if is_int(c):
        return int(c)
    raise TypeError(f"cyclotomic coefficient {c!r} is not an int or a Fraction")


def _canonical(coeffs):
    """coeffs as a tuple of canonical coefficients; TypeError if inexact."""
    coeffs = tuple(coeffs)
    # an all-int vector, by far the common case, is checked in C
    if {int}.issuperset(map(type, coeffs)):
        return coeffs
    return tuple(map(_exact, coeffs))


def _is_scalar(x):
    """True for an exact rational scalar: an int (not a bool) or a Fraction."""
    return is_int(x) or isinstance(x, Fraction)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(e):
    """Integer coefficients of Phi_e, ascending degree, monic.

    By Moebius inversion of x^e - 1 = prod_(d | e) Phi_d(x),
    Phi_e(x) = prod_(d | e) (1 - x^(e/d))^mu(d) for e > 1, expanded as a
    power series cut at degree phi(e): a factor 1 - x^m is one shifted
    subtraction, and 1/(1 - x^m) = 1 + x^m + x^2m + ... a running sum
    along each residue class mod m."""
    if e < 1:
        raise ValueError("order must be positive")
    if e == 1:
        return (-1, 1)
    # the squarefree divisors d of e, with mu(d), and phi(e)
    divisors, phi = [(1, 1)], e
    for p in factorize(e):
        divisors += [(d * p, -mu) for d, mu in divisors]
        phi = phi // p * (p - 1)
    poly = [1] + [0] * phi
    for d, mu in divisors:
        m = e // d
        if m > phi:
            continue
        if mu > 0:
            poly[m:] = list(map(sub, poly[m:], poly))
        else:
            for r in range(m):
                poly[r::m] = accumulate(poly[r::m])
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


@lru_cache(maxsize=None)
def root_exponents(e):
    """The roots of unity of order dividing e, each as its coefficient tuple
    in Q(zeta_e) mapped to the k in 0..e-1 with zeta_e^k equal to it."""
    return MappingProxyType({row: k for k, row in enumerate(_power_table(e))})


@lru_cache(maxsize=None)
def _phi_terms(e):
    """The nonzero (j, c_j) of Phi_e below its leading term."""
    phi = cyclotomic_polynomial(e)
    return tuple((j, c) for j, c in enumerate(phi[:-1]) if c)


def _terms(coeffs):
    """The nonzero terms (i, c_i) of a coefficient vector, lazily."""
    return compress(enumerate(coeffs), coeffs)


def _convolve(pairs, e):
    """Sum of the products x * y over pairs of order-e values, each given
    by its nonzero terms (i, c_i) (`_terms`), accumulated as one integer
    polynomial and reduced mod Phi_e once.  The terms of y are read once
    per term of x, so they must be a sequence; those of x may be an
    iterator.  An order-1 value's terms are a prefix of an order-e one's.

    The reduction replaces each z^i with i >= phi(e), top down, by
    -sum c_j z^(i - phi(e) + j), reading only the nonzero c_j."""
    d = _degree(e)
    conv = [0] * (2 * d - 1)
    for xs, ys in pairs:
        for i, a in xs:
            for j, b in ys:
                conv[i + j] += a * b
    terms = _phi_terms(e)
    for i in range(2 * d - 2, d - 1, -1):
        c = conv[i]
        if c:
            base = i - d
            for j, p in terms:
                conv[base + j] -= c * p
    del conv[d:]
    return conv


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


class Cyclotomic(Frozen):
    """An element of Q(zeta_e) in the power basis of Phi_e."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs):
        d = _degree(order)
        coeffs = _canonical(coeffs)
        if len(coeffs) != d:
            raise ValueError(f"need {d} coefficients for order {order}, got {len(coeffs)}")
        self._set(order=order, coeffs=coeffs)

    @classmethod
    def from_rational(cls, x, order=1):
        c = [0] * _degree(order)
        c[0] = _exact(x)
        return cls(order, c)

    def embed(self, order):
        """Rewrite in Q(zeta_order); requires self.order | order."""
        if order == self.order:
            return self
        if order % self.order:
            raise ValueError("embedding target must be a multiple of the order")
        return _make(order, _substitute(self.coeffs, order, order // self.order))

    def galois(self, k):
        """The Galois automorphism zeta_e -> zeta_e^k; k must be prime to e."""
        e = self.order
        if gcd(k, e) != 1:
            raise ValueError(f"{k} is not prime to the order {e}")
        return _make(e, _substitute(self.coeffs, e, k))

    def _coerce(self, other):
        if isinstance(other, Cyclotomic):
            return other
        if _is_scalar(other):
            return Cyclotomic.from_rational(other, 1)
        return None

    def _scaled(self, c):
        return _make(self.order, [x * c for x in self.coeffs])

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        pairs = zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        return _make(_joint_order(self, other), [x + y for x, y in pairs])

    __radd__ = __add__

    def __neg__(self):
        return _make(self.order, [-x for x in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        pairs = zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        return _make(_joint_order(self, other), [x - y for x, y in pairs])

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, Cyclotomic):
            e = self.order
            if other.order == e:
                pair = (_terms(self.coeffs), list(_terms(other.coeffs)))
                return _make(e, _convolve((pair,), e))
            if other.order == 1:
                return self._scaled(other.coeffs[0])
            if e == 1:
                return other._scaled(self.coeffs[0])
            raise _order_error(e, other.order)
        if _is_scalar(other):
            return self._scaled(other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if _is_scalar(other):
            return self._scaled(Fraction(1, 1) / other)
        if isinstance(other, Cyclotomic):
            return self * other.inverse()
        return NotImplemented

    def __pow__(self, k):
        """x ** k by repeated squaring.  x ** 0 is 1 and x ** -k is
        inverse() ** k; otherwise the result starts at the power of k's
        lowest set bit and base is squared only while higher bits remain,
        so x ** 4 takes 2 products and x ** -1 none beyond the inverse."""
        if k < 0:
            return self.inverse() ** (-k)
        if k == 0:
            return Cyclotomic.from_rational(1, self.order)
        base = self
        while not k & 1:
            base = base * base
            k >>= 1
        out = base
        k >>= 1
        while k:
            base = base * base
            if k & 1:
                out = out * base
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
        if other.order == self.order:
            return self.coeffs == other.coeffs
        _joint_order(self, other)  # raises unless one of them is rational
        return all(x == y for x, y in zip_longest(self.coeffs, other.coeffs, fillvalue=0))

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


_new = object.__new__
_set_order = Cyclotomic.order.__set__
_set_coeffs = Cyclotomic.coeffs.__set__


def _order_error(a, b):
    return ValueError(f"Cyclotomic operands of orders {a} and {b}: neither is rational")


def _joint_order(x, y):
    """The shared order of x and y, or the other's where one is rational."""
    if x.order == y.order or y.order == 1:
        return x.order
    if x.order == 1:
        return y.order
    raise _order_error(x.order, y.order)


def _make(order, coeffs):
    """The Cyclotomic of an arithmetic result: coeffs has the length phi(order),
    so only the canonical form is checked."""
    x = _new(Cyclotomic)
    _set_order(x, order)
    _set_coeffs(x, _canonical(coeffs))
    return x


def zeta(order, power=1):
    """The root of unity zeta_order^power, reduced mod Phi_order."""
    if order < 1:
        raise ValueError("order must be positive")
    return Cyclotomic(order, _power_table(order)[power % order])


def dot(xs, ys):
    """Exact sum of x * y over two equally long sequences of Cyclotomic.

    Every product is accumulated as one integer polynomial and reduced mod
    Phi once at the end (`_convolve`), so no intermediate Cyclotomic is
    built.  The operands share one order, apart from rational ones (order
    1); an empty sum is the rational zero."""
    orders = set(map(_order, xs))
    orders.update(map(_order, ys))
    orders.discard(1)
    if len(orders) > 1:
        raise _order_error(*sorted(orders)[:2])
    order = orders.pop() if orders else 1
    pairs = ((_terms(x.coeffs), list(_terms(y.coeffs))) for x, y in zip(xs, ys))
    return _make(order, _convolve(pairs, order))


def rref(rows, ncols):
    """Reduced row echelon form by sparse exact Gauss-Jordan elimination.

    rows is a sequence of dicts column -> nonzero Fraction or Cyclotomic,
    over the columns 0..ncols-1; it is not modified.  Returns (reduced,
    pivots): the nonzero rows of the reduced form, as dicts of the same
    kind, and their pivot columns in increasing order.  A pivot row whose
    only entry is the pivot normalises to 1 with no reciprocal; any other
    is scaled by the reciprocal x ** -1 of its pivot."""
    m = [dict(row) for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if c in m[i]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pivot = m[r][c]
        if len(m[r]) == 1:
            m[r] = {c: pivot ** 0}
        else:
            inv = pivot ** -1
            m[r] = {j: x * inv for j, x in m[r].items()}
        pivot_row = m[r]
        for i, row in enumerate(m):
            if i != r and c in row:
                f = row[c]
                new = dict(row)
                for j, y in pivot_row.items():
                    if j in new:
                        x = new[j] - f * y
                        if x:
                            new[j] = x
                        else:
                            del new[j]
                    else:
                        new[j] = -(f * y)
                m[i] = new
        pivots.append(c)
    return m[: len(pivots)], pivots


def nullspace(rows, ncols):
    """Basis of the right nullspace {v : A v = 0} of the matrix of `rref`.

    One sparse vector per column f without a pivot: v[f] = 1, and
    v[c] = -reduced[r][f] at each pivot c = pivots[r]; no zero is stored."""
    reduced, pivots = rref(rows, ncols)
    basis = []
    for f in sorted(set(range(ncols)).difference(pivots)):
        v = {f: 1}
        for c, row in zip(pivots, reduced):
            if f in row:
                v[c] = -row[f]
        basis.append(v)
    return basis


CYC_ZERO = Cyclotomic(1, (0,))
CYC_ONE = Cyclotomic(1, (1,))
