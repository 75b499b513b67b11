"""Weights of the double of a finite group and their fusion ring.

A weight is a pair (conjugacy class, irreducible character of the
centralizer of the class representative); it labels an irreducible
Yetter-Drinfeld module over the group.  Its pair character assigns to
commuting pairs (g, h) the trace of h on the g-graded component.

The dual has a closed form, the charge conjugation C = S^2 of
Coste-Gannon-Ruelle, "Finite group modular data" (2000):

    (g, rho)* = (g^(-1), conj rho).

It is the row of the centralizer table of its class i that equals its
pair character at (r_i, c_k), found by one probe of the table's row
index, keyed by the row's coefficient tuples; the Z-classes that each
pair character is read from are built once.  The conjugate is read as
a projection reads it, conj chi(c) = chi(c^(-1)): the pair row is
permuted by the inverse classes of Z_i, with no cyclotomic arithmetic.
Duals are not memoised: a dual costs one cached pair-row read, that
permutation and that one probe.

Fusion takes one of two routes:

- Two invertible (one-dimensional) weights (z, chi), z central, compose
  as the group Z(G) x Hom(G, k^x):
  (z1, chi1) (x) (z2, chi2) = (z1 z2, chi1 chi2).  Every value of a
  linear character is a root of unity zeta_(e_G)^k, so each such row is
  also stored as its exponent vector (k per class of G); the product's
  row is zeta_(e_G) to the sum of the two vectors mod e_G, found by one
  probe of the row index.  The class of z1 z2 is read off the
  translates of the centre, built once.  All three classes are central,
  so all three rows are read on G's classes.
- Every other pair is fused by projecting the pair character T of
  lam (x) mu onto each weight (i, j).  T is invariant under simultaneous
  conjugation, so the average over the commuting variety collapses to
  the class representative r_i and one representative c_k per class K_k
  of its centralizer Z_i:

      N_{lam mu}^{(i,j)} = (1/|Z_i|) sum_k |K_k| T(r_i, c_k) conj chi_j(c_k),
      T(r_i, c) = sum over g1 * g2 = r_i, g1 in C_lam, g2 in C_mu of
                  chi_lam(g1, c) chi_mu(g2, c).

When one factor is invertible, (z, chi) with z central, its class holds
z alone, so the product has one factor pair and is projected once, onto
the one class of z times the other factor's.

Every multiplicity is an exact cyclotomic number that must come out a
nonnegative integer.  The projection computes it on the integer terms
(i, c_i) of the values, never on Cyclotomic objects: each T(r_i, c_k) is
one `_convolve` over the factor pairs, and each multiplicity one more
over the classes k.  The pairs (g1, g2) depend only on the classes of
lam and mu, so they are listed once per pair of classes.

All values live in one field, Q(zeta_(e_G)) for the group exponent e_G:
the exponent of every centralizer divides e_G.  Classes whose
centralizers are equal share one table, and each distinct table gets one
record, built on first use: its value rows embedded at e_G, its class
representatives in G, its one row index and each row's exponent vector.
Two more fields wait for a projection.  The term rows, each value as its
nonzero terms, are added when a projection first reads a factor on the
table's classes.  The weighted rows, the terms of each row conjugated
(read at inverse classes) and weighted by class size, are added when a
projection first lands on them.  Duals and invertible products read
neither.  Every pair character that a dual or a projection reads goes
through the one cached read path, `_reads`: the classes read at (g, h)
for each class representative h of Z_i, built once per (g, i) with one
inversion of the conjugator of g.

Labels are canonical: "g<i>r<j>" for class i and row j of the
centralizer character table, in ASCII digits without leading zeros;
parse_label rejects every other spelling.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .chartable import CharacterTable
from .cyclotomic import CYC_ZERO, _convolve, _make, _power_table, _terms, root_exponents, zeta
from .errors import InconsistencyError, InputError
from .groups import after, centralizer, perm_inv, perm_mul

_LABEL_RE = re.compile(r"^g(\d+)r(\d+)$")


class Weight(NamedTuple):
    """A (class, centralizer irrep) pair, ordered and hashable as the
    tuple (class_index, irrep_index)."""

    class_index: int
    irrep_index: int

    @property
    def label(self):
        return f"g{self.class_index}r{self.irrep_index}"

    def __repr__(self):
        return self.label


class WeightSystem:
    """All weights of a finite group, with dimensions, fusion and duals."""

    def __init__(self, group, cache_dir=None):
        self.group = group
        self.conj = group.conj
        # tables[i].group is the centralizer Z_i of the class
        # representative r_i, and tables[i].conj its classes
        self.tables = []
        # equal centralizers, as element tuples of one group, share a table
        shared = {}
        for i in range(self.conj.count):
            z = centralizer(group, i)
            table = shared.get(z.elements)
            if table is None:
                table = shared[z.elements] = CharacterTable.load_or_compute(z, cache_dir)
            self.tables.append(table)
        self.weights = [
            Weight(i, j)
            for i in range(self.conj.count)
            for j in range(self.tables[i].count)
        ]
        self.by_label = {w.label: w for w in self.weights}
        self.unit = Weight(0, 0)
        self._fusion_cache = {}
        # (class of lam, class of mu) -> _factor_lists(lam, mu)
        self._factor_cache = {}
        # (g, i) -> for each class representative h of Z_i, the class
        # that pair characters at (g, h) are read from
        self._reads_cache = {}
        # table -> its _Record, built on first use
        self._records = {}
        # the center permutes the classes: for z = r_c central and each
        # class a, the class of z r_a
        self._translates = {}
        for c, members in enumerate(self.conj.classes):
            if len(members) == 1:
                z = members[0]
                self._translates[c] = [
                    self.conj.class_of[group.mul_index(z, rep)] for rep in self.conj.reps
                ]

    # ---- basic data ----

    def parse_label(self, label):
        m = _LABEL_RE.match(label)
        w = m and Weight(int(m.group(1)), int(m.group(2)))
        # only the canonical spelling: no leading zeros, no non-ASCII digits
        if not w or w.label != label:
            raise InputError(f"malformed weight label {label!r}")
        if w.class_index >= self.conj.count or w.irrep_index >= self.tables[w.class_index].count:
            raise InputError(f"weight label {label!r} is out of range for this group")
        return w

    def dim(self, w):
        return len(self.conj.classes[w.class_index]) * self.tables[w.class_index].degrees[w.irrep_index]

    # ---- pair characters ----

    def pair_char(self, w, g_index, h_index):
        """Trace of (g, h) on the weight w; zero off the commuting variety."""
        i = w.class_index
        if self.conj.class_of[g_index] != i:
            return CYC_ZERO
        k = self._read_class(g_index, h_index)
        return CYC_ZERO if k is None else self._base_record(i).values[w.irrep_index][k]

    def _base_record(self, i):
        """The _Record of the centralizer table of class i, built on first
        use, once per distinct table; its term rows are None until
        `_factor_rows` adds them, and its weighted rows until `_record`
        does.  The row index holds every row under its key, so the count
        of matches is the count a scan with == would find."""
        table = self.tables[i]
        record = self._records.get(table)
        if record is None:
            e = self.tables[0].exponent
            roots = root_exponents(e)
            values = [[v.embed(e) for v in row] for row in table.values]
            index, vectors = {}, []
            for j, row in enumerate(values):
                index.setdefault(_row_key(row), []).append(j)
                vector = tuple(roots.get(v.coeffs) for v in row)
                vectors.append(None if None in vector else vector)
            record = self._records[table] = _Record(
                values,
                [self.group.index[table.group.elements[r]] for r in table.conj.reps],
                None,
                None,
                index,
                vectors,
            )
        return record

    def _factor_rows(self, i):
        """The term rows of class i, which only a projection's factors
        read: they are added on the first call per table."""
        record = self._base_record(i)
        if record.terms is None:
            terms = [[tuple(_terms(v.coeffs)) for v in row] for row in record.values]
            record = self._records[self.tables[i]] = record._replace(terms=terms)
        return record.terms

    def _record(self, i):
        """The record of class i with its weighted rows, which only a
        projection onto class i reads: they are added on the first call
        per table."""
        record = self._base_record(i)
        if record.weighted is None:
            table = self.tables[i]
            sizes = table.conj.sizes()
            inv = table.conj.inverse_class
            # conj chi(c) = chi(c^(-1)) for a character chi
            weighted = [
                [
                    tuple((t, c * size) for t, c in _terms(row[inv[k]].coeffs))
                    for k, size in enumerate(sizes)
                ]
                for row in record.values
            ]
            record = self._records[table] = record._replace(weighted=weighted)
        return record

    def _read_class(self, g_index, h_index):
        """The class of Z_r holding x^(-1) h x, where g = x r x^(-1) for the
        class representative r, or None when h does not commute with g:
        h commutes with g exactly when x^(-1) h x lies in Z_r.  A
        representative's conjugator is the identity, so h is read as it is."""
        conj = self.conj
        a = conj.class_of[g_index]
        moved = self.group.elements[h_index]
        if g_index != conj.reps[a]:
            x = conj.conjugator[g_index]
            moved = perm_mul(perm_inv(x), perm_mul(moved, x))
        table = self.tables[a]
        k = table.group.index.get(moved)
        return None if k is None else table.conj.class_of[k]

    def _reads(self, g_index, i):
        """For each class representative h of Z_i, the class that pair
        characters at (g, h) are read from, or None; found once per (g, i).
        With g = x r x^(-1), (g, h) is read as (r, x^(-1) h x), so the row
        inverts x once and reads every h at the representative r."""
        reads = self._reads_cache.get((g_index, i))
        if reads is None:
            conj = self.conj
            r = conj.reps[conj.class_of[g_index]]
            hs = self._base_record(i).reps
            if g_index != r:
                group = self.group
                x = conj.conjugator[g_index]
                x_inv, right = perm_inv(x), after(x)
                hs = [group.index[perm_mul(x_inv, right(group.elements[h]))] for h in hs]
            reads = self._reads_cache[g_index, i] = [self._read_class(r, h) for h in hs]
        return reads

    def _pair_row(self, w, g_index, i):
        """pair_char(w, g, h) for each class representative h of Z_i, for g
        in the class of w, read through `_reads`."""
        values = self._base_record(w.class_index).values[w.irrep_index]
        return [CYC_ZERO if k is None else values[k] for k in self._reads(g_index, i)]

    # ---- fusion ----

    def fusion(self, lam, mu):
        """Decomposition of lam (x) mu as a multiset of weights.

        Returns a dict weight -> positive multiplicity.  When both factors
        are one-dimensional their exponent vectors are added; otherwise
        the pair character is projected onto every weight.  Raises
        InconsistencyError if the row lookup finds no unique weight, an
        invertible weight takes a value that is no root of unity, the
        projections fail to be nonnegative integers or the dimension count
        does not close.
        """
        key = (min(lam, mu), max(lam, mu))
        hit = self._fusion_cache.get(key)
        if hit is not None:
            return dict(hit)
        if self.dim(lam) == 1 and self.dim(mu) == 1:
            result = {self._times_invertibles(lam, mu): 1}
        else:
            result = {}
            for i, factors in enumerate(self._factors(lam, mu)):
                if not factors:
                    continue
                mults = self._multiplicities(lam, mu, i, factors)
                for j, mult in enumerate(mults):
                    if mult:
                        result[Weight(i, j)] = mult
        total = sum(m * self.dim(w) for w, m in result.items())
        expected = self.dim(lam) * self.dim(mu)
        if total != expected:
            raise InconsistencyError(
                f"fusion of {lam} and {mu} does not preserve dimension: "
                f"sum of m * dim(w) is {total}, dim {lam} * dim {mu} is {expected}"
            )
        self._fusion_cache[key] = dict(result)
        return result

    def dual(self, lam):
        """The dual weight (g^(-1), conj rho) of lam = (g, rho)."""
        b = self.conj.inverse_class[lam.class_index]
        g = self.group.inverse_index(self.conj.reps[b])
        pair = self._pair_row(lam, g, b)  # a class function on Z(g) = Z_b
        row = [pair[k] for k in self.tables[b].conj.inverse_class]  # conj chi(c) = chi(c^-1)
        found = self._base_record(b).index.get(_row_key(row), ())
        if len(found) != 1:
            raise _not_unique(f"dual of {lam}", len(found), b, row)
        return Weight(b, found[0])

    def _factors(self, lam, mu):
        """_factor_lists(lam, mu), built once per pair of classes."""
        key = (lam.class_index, mu.class_index)
        lists = self._factor_cache.get(key)
        if lists is None:
            lists = self._factor_cache[key] = self._factor_lists(lam, mu)
        return lists

    def _factor_lists(self, lam, mu):
        """For each class i, the pairs (g1, g2) with g1 in the class of
        lam, g2 in the class of mu and g1 * g2 = r_i; empty off the support.
        They depend only on the two classes (`_factors` keeps them)."""
        group = self.group
        conj = self.conj
        b = mu.class_index
        out = [[] for _ in range(conj.count)]
        for g1 in conj.classes[lam.class_index]:
            g1_inv = group.inverse_index(g1)
            for i, rep in enumerate(conj.reps):
                g2 = group.mul_index(g1_inv, rep)
                if conj.class_of[g2] == b:
                    out[i].append((g1, g2))
        return out

    def _multiplicities(self, lam, mu, i, factors):
        """Multiplicity of (i, j) in lam (x) mu for each row j:
        (1/|Z_i|) sum_k |K_k| T(r_i, c_k) conj chi_j(c_k), where T is the
        pair character of lam (x) mu and c_k runs over the class
        representatives of Z_i.

        It works on term rows, never on Cyclotomic values: T(r_i, c_k) is
        one `_convolve` over the factor pairs whose values at c_k are both
        nonzero, and each inner product one `_convolve` over the k where
        T and the weighted row are both nonzero.  An inner product that
        is a nonnegative integer multiple of |Z_i| is counted as it
        stands; any other goes to `_as_count`, which refuses it."""
        e = self.tables[0].exponent
        left = self._factor_rows(lam.class_index)[lam.irrep_index]
        right = self._factor_rows(mu.class_index)[mu.irrep_index]
        record = self._record(i)
        pairs = [[] for _ in record.reps]
        for g1, g2 in factors:
            for at_k, k1, k2 in zip(pairs, self._reads(g1, i), self._reads(g2, i)):
                if k1 is not None and k2 is not None:
                    x, y = left[k1], right[k2]
                    if x and y:
                        at_k.append((x, y))
        values = [tuple(_terms(_convolve(at_k, e))) if at_k else () for at_k in pairs]
        n = self.tables[i].group.order
        counts = []
        for j, row in enumerate(record.weighted):
            acc = _convolve([(t, w) for t, w in zip(values, row) if t and w], e)
            c = acc[0]
            if type(c) is int and c >= 0 and c % n == 0 and not any(acc[1:]):
                counts.append(c // n)
            else:
                counts.append(_as_count(_make(e, acc), n, lam, mu, i, j))
        return counts

    def _exponent_vector(self, w):
        """The exponent vector of the one-dimensional weight w."""
        record = self._base_record(w.class_index)
        vector = record.vectors[w.irrep_index]
        if vector is None:
            e = self.tables[0].exponent
            roots = root_exponents(e)
            k, v = next(
                (k, v) for k, v in enumerate(record.values[w.irrep_index]) if v.coeffs not in roots
            )
            raise InconsistencyError(
                f"invertible weight {w}: its value {v} at class {k} is not a root "
                f"of unity of order dividing {e}"
            )
        return vector

    def _times_invertibles(self, a, b):
        """The single weight (z1 z2, chi1 chi2) of a (x) b for two
        one-dimensional weights a = (z1, chi1) and b = (z2, chi2).  The
        class of z1 z2 is read off the translates of the centre; every
        class involved is central, its centralizer G itself, so the row
        of chi1 chi2 is zeta_(e_G) to the sum of the two exponent vectors
        mod e_G, found by one probe of the row index.  Only fusion calls
        it, so every product is evaluated once and cached there."""
        i = self._translates[a.class_index][b.class_index]
        e = self.tables[0].exponent
        pairs = list(zip(self._exponent_vector(a), self._exponent_vector(b)))
        powers = _power_table(e)
        found = self._base_record(i).index.get(tuple([powers[(x + y) % e] for x, y in pairs]), ())
        if len(found) != 1:
            row = [zeta(e, x + y) for x, y in pairs]
            raise _not_unique(f"product of {a} and {b}", len(found), i, row)
        return Weight(i, found[0])

    def census(self):
        """One row per weight: label, class size, irrep degree, dimension."""
        rows = []
        for w in self.weights:
            rows.append(
                {
                    "label": w.label,
                    "class_size": len(self.conj.classes[w.class_index]),
                    "irrep_degree": self.tables[w.class_index].degrees[w.irrep_index],
                    "dim": self.dim(w),
                }
            )
        return rows


class _Record(NamedTuple):
    """One distinct centralizer table, read at e_G."""

    values: list  # value rows, embedded into Q(zeta_(e_G))
    reps: list  # class representatives, as indices into G
    terms: list  # each value's nonzero (i, c_i) terms; None until read as a factor
    weighted: list  # terms of the rows conjugated, times class sizes; None until projected onto
    index: dict  # row key -> every row with that key
    vectors: list  # each row's exponent vector, or None off the roots of unity


def _row_key(row):
    """Rows of one order are equal exactly when their keys are."""
    return tuple(v.coeffs for v in row)


def _not_unique(what, count, i, row):
    """The error of a row lookup that found count weights over class i."""
    return InconsistencyError(
        f"{what}: {count} characters of the centralizer of class "
        f"{i} equal the computed row {row}, expected exactly one"
    )


def _as_count(acc, n, lam, mu, i, j):
    """Divide an inner product by a centralizer order and demand a count,
    the multiplicity of the weight (i, j) in lam (x) mu."""
    q = acc.to_rational() / n if acc.is_rational() else None
    if q is None or q.denominator != 1 or q < 0:
        verdict = "is not rational" if q is None else f"is {q}, not a nonnegative integer"
        raise InconsistencyError(
            f"fusion multiplicity of {Weight(i, j)} in {lam} (x) {mu}: inner "
            f"product {acc} over centralizer order {n} {verdict}"
        )
    return int(q)
