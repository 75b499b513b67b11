"""Sparse integer Laurent polynomials in one variable t.

Zero is the empty map; no explicit zero coefficients are stored.  These
carry the graded multiplicities p_{N,lambda} and the t <-> 1/t involution
used by the reciprocity matrices.
"""

from __future__ import annotations


class LaurentInt:
    """Finite map degree -> nonzero integer coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        t = {}
        if terms:
            for d, c in (terms.items() if isinstance(terms, dict) else terms):
                if c:
                    nc = t.get(d, 0) + c
                    if nc:
                        t[d] = nc
                    elif d in t:
                        del t[d]
        object.__setattr__(self, "terms", t)

    def __setattr__(self, *a):
        raise AttributeError("LaurentInt is immutable")

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({0: 1})

    @classmethod
    def monomial(cls, coeff, degree=0):
        return cls({degree: coeff})

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        t = dict(self.terms)
        for d, c in other.terms.items():
            nc = t.get(d, 0) + c
            if nc:
                t[d] = nc
            elif d in t:
                del t[d]
        return LaurentInt(t)

    __radd__ = __add__

    def __neg__(self):
        return LaurentInt({d: -c for d, c in self.terms.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentInt({d: c * other for d, c in self.terms.items()})
        if not isinstance(other, LaurentInt):
            return NotImplemented
        t = {}
        for d1, c1 in self.terms.items():
            for d2, c2 in other.terms.items():
                d = d1 + d2
                t[d] = t.get(d, 0) + c1 * c2
        return LaurentInt(t)

    __rmul__ = __mul__

    def shift(self, k):
        """Multiply by t^k."""
        return LaurentInt({d + k: c for d, c in self.terms.items()})

    def bar(self):
        """The involution t -> 1/t."""
        return LaurentInt({-d: c for d, c in self.terms.items()})

    def eval_one(self):
        """Evaluate at t = 1 (sum of coefficients)."""
        return sum(self.terms.values())

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_nonnegative(self):
        return all(c > 0 for c in self.terms.values())

    def min_degree(self):
        return min(self.terms) if self.terms else None

    def max_degree(self):
        return max(self.terms) if self.terms else None

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return f"LaurentInt({self})"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for d in sorted(self.terms, reverse=True):
            c = self.terms[d]
            if d == 0:
                body = str(abs(c))
            else:
                tp = "t" if d == 1 else f"t^{d}"
                body = tp if abs(c) == 1 else f"{abs(c)}*{tp}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def to_json(self):
        return {str(d): c for d, c in sorted(self.terms.items())}

    @classmethod
    def from_json(cls, obj):
        return cls({int(d): int(c) for d, c in obj.items()})


def _coerce(x):
    if isinstance(x, LaurentInt):
        return x
    if isinstance(x, int):
        return LaurentInt({0: x})
    return None

