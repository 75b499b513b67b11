"""Sparse sums, and integer Laurent polynomials in one variable t.

`_SparseSum` is the one copy of the additive rules shared by LaurentInt
here and by KElement and GradedChar in `graded`: a finite map key ->
nonzero coefficient (zero is the empty map, and no zero coefficient is
ever stored), immutable, added, negated, compared and hashed termwise.
LaurentInt carries the graded multiplicities p_{N,lambda} and the
t <-> 1/t involution used by the reciprocity matrices.
"""

from __future__ import annotations

from .errors import Frozen


class _SparseSum(Frozen):
    """Finite map key -> nonzero coefficient of type `_kind`.

    Subclasses set `_kind` and add their products and views.  Only
    operands of the same type take part in +, - and ==; an int is never
    equal to a sum, so equal values always hash equal."""

    __slots__ = ("terms",)
    _kind = int

    def __init__(self, terms=()):
        kind = self._kind
        data = {}
        for key, c in dict(terms).items():
            if not isinstance(c, kind):
                raise TypeError(
                    f"{type(self).__name__} coefficients must be {kind.__name__}, "
                    f"got {c!r}"
                )
            if c:
                data[key] = c
        self._set(terms=data)

    @classmethod
    def _new(cls, terms):
        """Wrap a dict that already holds only nonzero coefficients."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "terms", terms)
        return obj

    @classmethod
    def zero(cls):
        return cls._new({})

    def _coerce(self, other):
        return other if type(other) is type(self) else None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for key, c in other.terms.items():
            if key in out:
                c = out[key] + c
                if not c:
                    del out[key]
                    continue
            out[key] = c
        return self._new(out)

    def __neg__(self):
        return self._new({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def _scaled(self, k):
        """Every coefficient times the integer k."""
        return self._new({key: c * k for key, c in self.terms.items()} if k else {})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))


class LaurentInt(_SparseSum):
    """Finite map degree -> nonzero integer coefficient."""

    __slots__ = ()

    @classmethod
    def one(cls):
        return cls({0: 1})

    @classmethod
    def monomial(cls, coeff, degree=0):
        return cls({degree: coeff})

    def __mul__(self, other):
        if isinstance(other, int):
            return self._scaled(other)
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
        return LaurentInt._new({d + k: c for d, c in self.terms.items()})

    def bar(self):
        """The involution t -> 1/t."""
        return LaurentInt._new({-d: c for d, c in self.terms.items()})

    def eval_one(self):
        """Evaluate at t = 1 (sum of coefficients)."""
        return sum(self.terms.values())

    def is_nonnegative(self):
        return all(c > 0 for c in self.terms.values())

    def min_degree(self):
        return min(self.terms) if self.terms else None

    def max_degree(self):
        return max(self.terms) if self.terms else None

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
