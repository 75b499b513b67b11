"""Finite permutation groups as explicit element lists.

Elements are 0-based image tuples, canonically ordered lexicographically.
The scale of interest is small (order cap 10,000 by default), so closure is
one plain BFS and no stabilizer chains are kept.  A group builds its classes
once, on first use (`conj`), by one walk under conjugation by the generators
that records a conjugator per element; a centralizer is read off that walk
as a stabilizer (Schreier's lemma), and a central class's is the group.

Every product a*b of two permutations gathers the images of a in C with
`operator.itemgetter(*b)`.  `perm_mul` builds that gather per product;
where one right factor b meets many left factors, as a generator does in
closure and in the walks under conjugation, `after(b)` builds it once.
"""

from __future__ import annotations

import json
from functools import cached_property
from math import gcd, lcm
from operator import itemgetter

from .errors import InputError, is_int

DEFAULT_MAX_ORDER = 10_000


def perm_mul(a, b):
    """Composition a after b: (a*b)(x) = a(b(x)), gathered in C."""
    if len(b) > 1:
        return itemgetter(*b)(a)
    # itemgetter of one index returns the bare item, and of none fails
    return (a[b[0]],) if b else ()


def after(b):
    """The map a -> a*b of `perm_mul`, prepared once for many a."""
    if len(b) > 1:
        return itemgetter(*b)
    return lambda a: perm_mul(a, b)


def perm_inv(a):
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


def identity_perm(degree):
    return tuple(range(degree))


def perm_order(a):
    """Order = lcm of cycle lengths."""
    seen = [False] * len(a)
    out = 1
    for i in range(len(a)):
        if not seen[i]:
            ln, j = 0, i
            while not seen[j]:
                seen[j] = True
                j = a[j]
                ln += 1
            out = out * ln // gcd(out, ln)
    return out


def check_perm(p, degree):
    if (
        len(p) != degree
        or not all(is_int(x) for x in p)
        or sorted(p) != list(range(degree))
    ):
        raise InputError(f"not a permutation of 0..{degree - 1}: {list(p)}")
    return tuple(p)


def _closure(degree, gens, max_order):
    """Every product of gens, by breadth-first search from the identity;
    InputError once more than max_order elements turn up."""
    e = identity_perm(degree)
    seen = {e}
    frontier = [e]
    steps = [after(g) for g in gens]
    while frontier:
        nxt = []
        for x in frontier:
            for step in steps:
                y = step(x)
                if y not in seen:
                    if len(seen) >= max_order:
                        raise InputError(
                            f"group order exceeds the cap ({max_order}); "
                            "raise --max-group-order if this is intended"
                        )
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


class FiniteGroup:
    """A finite permutation group: a sorted element list, and its classes built on first use."""

    def __init__(self, degree, generators, elements):
        self.degree = degree
        self.generators = tuple(generators)
        # (s, a -> a*s^(-1)) for each generator s, for walks under
        # conjugation: s g s^(-1) is after(s^(-1))(perm_mul(s, g))
        self.conjugation_steps = tuple((s, after(perm_inv(s))) for s in self.generators)
        self.elements = tuple(elements)
        self.index = {g: i for i, g in enumerate(self.elements)}
        self.identity = identity_perm(degree)
        self.identity_index = self.index[self.identity]
        self._inverse = {}

    @classmethod
    def from_generators(cls, degree, gens, max_order=DEFAULT_MAX_ORDER):
        gens = [check_perm(g, degree) for g in gens]
        return cls(degree, gens, sorted(_closure(degree, gens, max_order)))

    @property
    def order(self):
        return len(self.elements)

    @cached_property
    def conj(self):
        return ConjugacyData(self)

    def exponent(self):
        """The lcm of the orders of the class representatives (conjugates share one)."""
        return lcm(*(perm_order(self.elements[r]) for r in self.conj.reps))

    def inverse_index(self, i):
        """The index of the inverse of element i, inverted on first request;
        the pair is stored both ways."""
        inv = self._inverse.get(i)
        if inv is None:
            inv = self.index[perm_inv(self.elements[i])]
            self._inverse[i] = inv
            self._inverse[inv] = i
        return inv

    def mul_index(self, i, j):
        return self.index[perm_mul(self.elements[i], self.elements[j])]

    def content_key(self):
        """Canonical string identifying the group by its full element list,
        so different generating sets of the same closure share cache entries."""
        return json.dumps(
            {"degree": self.degree, "elements": [list(g) for g in self.elements]},
            sort_keys=True,
            separators=(",", ":"),
        )

    def to_json(self):
        return {
            "format": 1,
            "degree": self.degree,
            "generators": [list(g) for g in self.generators],
        }

    @classmethod
    def from_json(cls, obj, max_order=DEFAULT_MAX_ORDER):
        if not isinstance(obj, dict):
            raise InputError("group file must be a JSON object")
        fmt = obj.get("format", 1)
        if not is_int(fmt) or fmt != 1:
            raise InputError(f"unsupported group file format: {fmt!r}")
        try:
            degree = obj["degree"]
            gens = [list(g) for g in obj.get("generators", [])]
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed group file: {exc}") from exc
        if not is_int(degree) or not all(is_int(x) for g in gens for x in g):
            raise InputError("malformed group file: degree and points must be integers")
        if degree < 1:
            raise InputError("degree must be at least 1")
        return cls.from_generators(degree, gens, max_order=max_order)

    def __repr__(self):
        return f"FiniteGroup(degree={self.degree}, order={self.order})"


class ConjugacyData:
    """Conjugacy classes with canonical representatives and fixed conjugators.

    Representatives are the lexicographically minimal members; classes are
    ordered by representative, so the identity class is always class 0.
    For every element g the stored conjugator x_g satisfies
    x_g * rep * x_g^(-1) = g; x_rep is the identity.  Its inverse is not
    stored: the readers that need x_g^(-1), `centralizer` and
    `WeightSystem._read_class`, invert x_g where they read it, and
    `WeightSystem._reads` once per row of reads.
    """

    def __init__(self, group):
        n = group.order
        elements = group.elements
        class_of = [-1] * n
        conjugator = [None] * n
        classes = []
        reps = []
        for start in range(n):
            if class_of[start] >= 0:
                continue
            cid = len(classes)
            rep = elements[start]
            class_of[start] = cid
            conjugator[start] = group.identity
            members = [start]
            queue = [start]
            while queue:
                i = queue.pop()
                gi = elements[i]
                for s, right in group.conjugation_steps:
                    j = group.index[right(perm_mul(s, gi))]
                    if class_of[j] < 0:
                        class_of[j] = cid
                        conjugator[j] = perm_mul(s, conjugator[i])
                        members.append(j)
                        queue.append(j)
            members.sort()
            classes.append(members)
            reps.append(start)
        self.classes = classes
        self.reps = reps
        self.class_of = class_of
        self.conjugator = conjugator
        self.inverse_class = [
            class_of[group.inverse_index(r)] for r in reps
        ]

    @property
    def count(self):
        return len(self.classes)

    def sizes(self):
        return [len(c) for c in self.classes]


def centralizer(group, i):
    """The centralizer of the representative r of class i, on the same points.

    It is the stabilizer of r under conjugation.  For each member a of
    the class and each generator s, with b = s a s^(-1), the element
    x_b^(-1) s x_a fixes r, and these Schreier elements generate the
    stabilizer; only those outside the closure so far are kept.  A class
    of one member is central, and its centralizer is the group itself.
    """
    conj = group.conj
    members = conj.classes[i]
    if len(members) == 1:
        return group
    order = group.order // len(members)
    elements = group.elements
    gens = []
    have = {group.identity}
    for a in members:
        x_a = conj.conjugator[a]
        for s, right in group.conjugation_steps:
            b = group.index[right(perm_mul(s, elements[a]))]
            h = perm_mul(perm_inv(conj.conjugator[b]), perm_mul(s, x_a))
            if h not in have:
                gens.append(h)
                have = _closure(group.degree, gens, order)
        if len(have) == order:
            break
    return FiniteGroup(group.degree, gens, sorted(have))
