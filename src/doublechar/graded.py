"""Formal characters: integer combinations of weights, graded by degree.

KElement is a finite multiset of weights with integer multiplicities,
the ungraded character of a finite-dimensional module.  GradedChar
attaches a degree to every layer, so it is a Laurent polynomial in t
whose coefficients are KElements.  Both are sparse sums
(`laurent._SparseSum`), which holds their storage, zero-dropping,
immutability, +, -, == and hash; this module adds only what differs.
Products need fusion, so the operations that multiply or dualize take
the WeightSystem as an argument; everything else is system-free
bookkeeping.
"""

from __future__ import annotations

from .errors import InputError, field
from .laurent import LaurentInt, _SparseSum


class KElement(_SparseSum):
    """An integer linear combination of weights."""

    __slots__ = ()

    @classmethod
    def of(cls, weight, mult=1):
        return cls({weight: mult})

    def items(self):
        return sorted(self.terms.items())

    def __mul__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        return self._scaled(k)

    __rmul__ = __mul__

    def is_nonnegative(self):
        return all(m > 0 for m in self.terms.values())

    def multiplicity(self, w):
        return self.terms.get(w, 0)

    def dim(self, system):
        return sum(m * system.dim(w) for w, m in self.terms.items())

    def mul(self, other, system):
        out = {}
        for w1, m1 in self.terms.items():
            for w2, m2 in other.terms.items():
                for w3, n in system.fusion(w1, w2).items():
                    out[w3] = out.get(w3, 0) + m1 * m2 * n
        return KElement._new({w: m for w, m in out.items() if m})

    def dual(self, system):
        return KElement._new({system.dual(w): m for w, m in self.terms.items()})

    def to_json(self):
        return [{"w": w.label, "m": m} for w, m in self.items()]

    @classmethod
    def from_json(cls, items, system, where):
        """Parse a list of {"w": label, "m": multiplicity}; a weight listed
        twice adds up.  where names an item in error messages."""
        terms = {}
        for item in items:
            w = system.parse_label(field(item, "w", str, where))
            m = field(item, "m", int, where)
            terms[w] = terms.get(w, 0) + m
        return cls(terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for w, m in self.items():
            parts.append(f"{m}*{w.label}" if m != 1 else w.label)
        return " + ".join(parts)


class GradedChar(_SparseSum):
    """A Laurent polynomial in t with KElement coefficients."""

    __slots__ = ()
    _kind = KElement

    @classmethod
    def of(cls, weight, deg=0, mult=1):
        return cls({deg: KElement.of(weight, mult)})

    def degrees(self):
        return sorted(self.terms)

    def layer(self, d):
        return self.terms.get(d, KElement.zero())

    def min_degree(self):
        if not self.terms:
            raise InputError("zero character has no degrees")
        return min(self.terms)

    def max_degree(self):
        if not self.terms:
            raise InputError("zero character has no degrees")
        return max(self.terms)

    def scale(self, mult):
        """Multiply by a plain integer or by a Laurent polynomial in t."""
        if isinstance(mult, int):
            return self._scaled(mult)
        if isinstance(mult, LaurentInt):
            out = {}
            for e, c in mult.terms.items():
                for d, k in self.terms.items():
                    cur = out.get(d + e)
                    out[d + e] = (cur + k * c) if cur is not None else k * c
            return GradedChar(out)
        raise InputError("characters scale by integers or Laurent polynomials")

    def shift(self, k):
        return GradedChar._new({d + k: v for d, v in self.terms.items()})

    def eval_one(self):
        """Forget the grading: the sum of all layers."""
        return sum(self.terms.values(), KElement.zero())

    def dim(self, system):
        return sum(k.dim(system) for k in self.terms.values())

    def series(self, w):
        """The multiplicity of the weight w per degree, as a Laurent
        polynomial in t, or None when w occurs in no layer."""
        poly = {d: k.terms[w] for d, k in self.terms.items() if w in k.terms}
        return LaurentInt._new(poly) if poly else None

    def is_nonnegative(self):
        return all(k.is_nonnegative() for k in self.terms.values())

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for d in self.degrees():
            k = self.terms[d]
            if d == 0:
                parts.append(f"({k!r})")
            else:
                parts.append(f"({k!r})*t^{d}" if d != 1 else f"({k!r})*t")
        return " + ".join(parts)

    # ---- JSON ----

    def to_json(self):
        return {
            "char": [
                {"deg": d, "weights": self.terms[d].to_json()}
                for d in self.degrees()
            ]
        }

    @classmethod
    def from_json(cls, obj, system):
        layers = {}
        for entry in field(obj, "char", list, "graded character payload"):
            d = field(entry, "deg", int, "graded character layer")
            layer = KElement.from_json(
                field(entry, "weights", list, "graded character layer"),
                system,
                "graded character weight",
            )
            if d in layers:
                raise InputError(f"duplicate layer degree {d}")
            layers[d] = layer
        return cls(layers)


def gc_mul(a, b, system):
    """Product of graded characters, expanding weight pairs by fusion."""
    out = {}
    for d, ka in a.terms.items():
        for e, kb in b.terms.items():
            prod = ka.mul(kb, system)
            if prod:
                cur = out.get(d + e)
                out[d + e] = (cur + prod) if cur is not None else prod
    return GradedChar(out)


def gc_dual(a, system):
    """Dual character: degrees negate and every weight dualizes."""
    return GradedChar({-d: k.dual(system) for d, k in a.terms.items()})


def add_scaled(acc, char, k, shift=0):
    """Adds k * t^shift * char to acc, a dict degree -> {weight: int},
    in place; a coefficient or layer that reaches zero is dropped."""
    if not k:
        return
    for d, layer in char.terms.items():
        d += shift
        terms = acc.get(d)
        if terms is None:
            terms = acc[d] = {}
        for w, m in layer.terms.items():
            c = terms.get(w, 0) + k * m
            if c:
                terms[w] = c
            else:
                del terms[w]
        if not terms:
            del acc[d]


def combine(row, chars):
    """The character sum over w of chars[w] scaled by row[w], an integer
    or Laurent coefficient, accumulated in place in one
    degree -> {weight: coefficient} dict and wrapped once."""
    acc = {}
    for w, c in row.items():
        if isinstance(c, int):
            add_scaled(acc, chars[w], c)
        elif isinstance(c, LaurentInt):
            for e, k in c.terms.items():
                add_scaled(acc, chars[w], k, e)
        else:
            raise InputError("characters scale by integers or Laurent polynomials")
    return GradedChar._new({d: KElement._new(terms) for d, terms in acc.items()})
