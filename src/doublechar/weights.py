"""Weights of the double of a finite group and their fusion ring.

A weight is a pair (conjugacy class, irreducible character of the
centralizer of the class representative); it labels an irreducible
Yetter-Drinfeld module over the group.  Its pair character assigns to
commuting pairs (g, h) the trace of h on the g-graded component.

Duals and products with a one-dimensional (invertible) weight (z, chi),
z central, are single weights with closed forms:

    (g, rho)* = (g^(-1), conj rho),
    (z, chi) (x) (g, rho) = (z g, chi|_{Z_g} rho).

Each is the row of the centralizer table of its class i that equals its
pair character at (r_i, c_k).  The dual is the charge conjugation
C = S^2 of Coste-Gannon-Ruelle, "Finite group modular data" (2000).
Neither does any permutation work or row scan: the class of z r_a and
the Z-classes that each pair character is read from are built once, and
a row is found by one dict probe on its coefficient tuple.

Fusion takes one of three routes:

- Two invertible weights compose as the group Z(G) x Hom(G, k^x):
  (z1, chi1) (x) (z2, chi2) = (z1 z2, chi1 chi2).  Every value of a
  linear character is a root of unity zeta_(e_G)^k, so each such row is
  stored as its exponent vector (k per class of G); the product's row is
  the sum of the two vectors mod e_G, found by one dict probe.  All
  three classes are central, so all three rows are read on G's classes.
- An invertible weight times a weight of dimension above one takes the
  second formula above.
- Every other pair is fused by projecting the pair character T of
  lam (x) mu onto each weight (i, j).  T is invariant under simultaneous
conjugation, so the average over the commuting variety collapses to the
class representative r_i and one representative c_k per class K_k of
its centralizer Z_i:

    N_{lam mu}^{(i,j)} = (1/|Z_i|) sum_k |K_k| T(r_i, c_k) conj chi_j(c_k),
    T(r_i, c) = sum over g1 * g2 = r_i, g1 in C_lam, g2 in C_mu of
                chi_lam(g1, c) chi_mu(g2, c).

Every multiplicity is an exact cyclotomic number that must come out a
nonnegative integer.

All values live in one field, Q(zeta_(e_G)) for the group exponent e_G:
the exponent of every centralizer divides e_G, so each distinct table's
values are embedded there once, on first use, and every pair character,
product, dual row and inner product is arithmetic of that one order.

Labels are canonical: "g<i>r<j>" for class i and row j of the
centralizer character table, in ASCII digits without leading zeros;
parse_label rejects every other spelling.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .chartable import CharacterTable
from .cyclotomic import CYC_ZERO, dot, root_exponents, zeta
from .errors import InconsistencyError, InputError
from .groups import centralizer, perm_mul

_LABEL_RE = re.compile(r"^g(\d+)r(\d+)$")


@dataclass(frozen=True, order=True)
class Weight:
    """A (class, centralizer irrep) pair, ordered and hashable."""

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
        shared = {}
        for i in range(self.conj.count):
            z = centralizer(group, i)
            key = z.content_key()
            if key not in shared:
                shared[key] = CharacterTable.load_or_compute(z, cache_dir)
            self.tables.append(shared[key])
        self.weights = [
            Weight(i, j)
            for i in range(self.conj.count)
            for j in range(self.tables[i].count)
        ]
        self.by_label = {w.label: w for w in self.weights}
        self.unit = Weight(0, 0)
        self._fusion_cache = {}
        self._dual_cache = {}
        self._rows_cache = {}
        # (g, i) -> for each class representative h of Z_i, the class
        # that pair characters at (g, h) are read from
        self._reads_cache = {}
        # table -> its value rows embedded into Q(zeta_(e_G))
        self._embedded = {}
        # table -> row key -> the indices of the rows with that key
        self._row_index = {}
        # table -> (each row's exponent vector, or None, and vector -> the
        # indices of the rows with that vector)
        self._exponent_index = {}
        # the center permutes the classes: for z = r_c central and each
        # class a, the class i of z r_a and z^(-1) r_i, a member of class a
        self._translates = {}
        for c, members in enumerate(self.conj.classes):
            if len(members) == 1:
                z = members[0]
                z_inv = group.inverse_index(z)
                self._translates[c] = translates = []
                for rep in self.conj.reps:
                    i = self.conj.class_of[group.mul_index(z, rep)]
                    translates.append((i, group.mul_index(z_inv, self.conj.reps[i])))

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
        return CYC_ZERO if k is None else self._values(i)[w.irrep_index][k]

    def _values(self, i):
        """The value rows of the centralizer table of class i, embedded
        into Q(zeta_(e_G)) on first use, once per distinct table."""
        table = self.tables[i]
        rows = self._embedded.get(table)
        if rows is None:
            e = self.tables[0].exponent
            rows = self._embedded[table] = [[v.embed(e) for v in row] for row in table.values]
        return rows

    def _read_class(self, g_index, h_index):
        """The class of Z_r holding x^(-1) h x, where g = x r x^(-1) for the
        class representative r, or None when h does not commute with g:
        h commutes with g exactly when x^(-1) h x lies in Z_r.  A
        representative's conjugator is the identity, so h is read as it is."""
        conj = self.conj
        a = conj.class_of[g_index]
        moved = self.group.elements[h_index]
        if g_index != conj.reps[a]:
            moved = perm_mul(
                conj.conjugator_inv[g_index], perm_mul(moved, conj.conjugator[g_index])
            )
        table = self.tables[a]
        k = table.group.index.get(moved)
        return None if k is None else table.conj.class_of[k]

    def _pair_row(self, w, g_index, i):
        """pair_char(w, g, h) for each class representative h of Z_i, for g
        in the class of w; the classes read are found once per (g, i)."""
        reads = self._reads_cache.get((g_index, i))
        if reads is None:
            reads = self._reads_cache[g_index, i] = [
                self._read_class(g_index, h) for h in self._centralizer_reps(i)
            ]
        values = self._values(w.class_index)[w.irrep_index]
        return [CYC_ZERO if k is None else values[k] for k in reads]

    def _centralizer_reps(self, i):
        """Class representatives of the centralizer Z_i as group indices."""
        table = self.tables[i]
        return [self.group.index[table.group.elements[r]] for r in table.conj.reps]

    # ---- fusion ----

    def fusion(self, lam, mu):
        """Decomposition of lam (x) mu as a multiset of weights.

        Returns a dict weight -> positive multiplicity.  When both factors
        are one-dimensional their exponent vectors are added; when one is,
        the product is the single weight of the closed form; otherwise the
        pair character is projected onto every weight.  Raises
        InconsistencyError if the row lookup finds no unique weight, an
        invertible weight takes a value that is no root of unity, the
        projections fail to be nonnegative integers or the dimension count
        does not close.
        """
        key = (min(lam, mu), max(lam, mu))
        hit = self._fusion_cache.get(key)
        if hit is not None:
            return dict(hit)
        if self.dim(lam) == 1:
            if self.dim(mu) == 1:
                result = {self._times_invertibles(lam, mu): 1}
            else:
                result = {self._times_invertible(lam, mu): 1}
        elif self.dim(mu) == 1:
            result = {self._times_invertible(mu, lam): 1}
        else:
            result = {}
            for i, factors in enumerate(self._factor_lists(lam, mu)):
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
        hit = self._dual_cache.get(lam)
        if hit is not None:
            return hit
        b = self.conj.inverse_class[lam.class_index]
        g = self.group.inverse_index(self.conj.reps[b])
        row = [v.conjugate() for v in self._pair_row(lam, g, b)]
        found = self._weight_with_row(b, row, f"dual of {lam}")
        self._dual_cache[lam] = found
        return found

    def _weight_with_row(self, i, row, what):
        """The weight over class i whose centralizer character is row.

        The index is built once per table, which classes share, and holds
        every row with its key, so the count of matches is the count a
        scan with == would find."""
        table = self.tables[i]
        index = self._row_index.get(table)
        if index is None:
            index = self._row_index[table] = {}
            for j, values in enumerate(self._values(i)):
                index.setdefault(_row_key(values), []).append(j)
        found = index.get(_row_key(row), ())
        if len(found) != 1:
            raise _not_unique(what, len(found), i, row)
        return Weight(i, found[0])

    def _factor_lists(self, lam, mu):
        """For each class i, the pairs (g1, g2) with g1 in the class of
        lam, g2 in the class of mu and g1 * g2 = r_i; empty off the support."""
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

    def _class_rows(self, i):
        """Class representatives of the centralizer Z_i as group indices,
        and its character rows conjugated and weighted by class size.
        Built on first use."""
        hit = self._rows_cache.get(i)
        if hit is None:
            reps = self._centralizer_reps(i)
            sizes = self.tables[i].conj.sizes()
            rows = [
                [v.conjugate() * size for v, size in zip(row, sizes)]
                for row in self._values(i)
            ]
            hit = self._rows_cache[i] = (reps, rows)
        return hit

    def _multiplicities(self, lam, mu, i, factors):
        """Multiplicity of (i, j) in lam (x) mu for each row j:
        (1/|Z_i|) sum_k |K_k| T(r_i, c_k) conj chi_j(c_k), where T is the
        pair character of lam (x) mu and c_k runs over the class
        representatives of Z_i."""
        reps, rows = self._class_rows(i)
        values = []
        for h in reps:
            left, right = [], []
            for g1, g2 in factors:
                v1 = self.pair_char(lam, g1, h)
                if v1.is_zero():
                    continue
                v2 = self.pair_char(mu, g2, h)
                if not v2.is_zero():
                    left.append(v1)
                    right.append(v2)
            values.append(dot(left, right))
        order = self.tables[i].group.order
        return [
            _as_count(dot(values, row), order, lam, mu, i, j)
            for j, row in enumerate(rows)
        ]

    def _times_invertible(self, onedim, lam):
        """The single weight (z g, chi rho) of (z, chi) (x) (g, rho), for a
        one-dimensional weight onedim = (z, chi): the pair character of
        the product at the representative r_i of the target class, z times
        the class of g, looked up among the rows of Z_i.  At (r_i, h) it is
        chi(z, h) rho(z^(-1) r_i, h).  Fusion calls it when lam has
        dimension above one, so every such product is evaluated once and
        cached there; two invertible weights take `_times_invertibles`."""
        c = onedim.class_index
        i, g = self._translates[c][lam.class_index]
        row = [
            x * y
            for x, y in zip(
                self._pair_row(onedim, self.conj.reps[c], i), self._pair_row(lam, g, i)
            )
        ]
        return self._weight_with_row(i, row, f"product of {onedim} and {lam}")

    def _exponent_rows(self, i):
        """For the centralizer table of class i, a pair: each row's
        exponent vector, the k with value zeta_(e_G)^k at each class, or
        None when a value is no root of unity of order dividing e_G; and a
        dict from each vector to the rows that have it.  Built once per
        table, on first use; every row of roots is indexed, so the count
        of matches is the count a scan with == would find."""
        table = self.tables[i]
        hit = self._exponent_index.get(table)
        if hit is None:
            roots = root_exponents(self.tables[0].exponent)
            vectors, index = [], {}
            for j, values in enumerate(self._values(i)):
                vector = tuple(roots.get(v.coeffs) for v in values)
                if None in vector:
                    vector = None
                else:
                    index.setdefault(vector, []).append(j)
                vectors.append(vector)
            hit = self._exponent_index[table] = (vectors, index)
        return hit

    def _exponent_vector(self, w):
        """The exponent vector of the one-dimensional weight w."""
        vectors, _ = self._exponent_rows(w.class_index)
        vector = vectors[w.irrep_index]
        if vector is None:
            e = self.tables[0].exponent
            roots = root_exponents(e)
            k, v = next(
                (k, v)
                for k, v in enumerate(self._values(w.class_index)[w.irrep_index])
                if v.coeffs not in roots
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
        of chi1 chi2 is the sum of the two exponent vectors mod e_G, found
        by one probe.  Only fusion calls it, so every product is evaluated
        once and cached there."""
        i = self._translates[a.class_index][b.class_index][0]
        e = self.tables[0].exponent
        pairs = zip(self._exponent_vector(a), self._exponent_vector(b))
        key = tuple([(x + y) % e for x, y in pairs])
        _, index = self._exponent_rows(i)
        found = index.get(key, ())
        if len(found) != 1:
            row = [zeta(e, k) for k in key]
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
