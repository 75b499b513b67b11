"""Exact complex character tables of finite permutation groups.

The table is computed by Dixon's modular refinement of Burnside's class
matrix method: all work happens in a prime field F_p with p = 1 (mod
exponent e), where every character value becomes a sum of powers of a
fixed primitive e-th root of unity omega.  The value on a class whose
representative has order o is a sum of o-th roots of unity, so its root
multiplicities are recovered with a discrete Fourier transform of
length o over F_p (with omega_o = omega^(e/o)), reassembled as an exact
cyclotomic integer of Q(zeta_o) and embedded into Q(zeta_e).  The
finished table is verified against the orthogonality relations before
it is returned, so a successfully constructed CharacterTable is
self-certifying.  The check is exact: each inner product is one
convolution reduced mod Phi_e, compared with |G| or 0.  It reads each
value's nonzero power-basis terms once per table, and scales those of
chi(j^-1) by the class size |K_j| once, so a rational value (every value
of a symmetric group's table) costs one term however large e is.  Its
columns are `group.conj`, the classes the group owns.

`load_or_compute` caches a table as one compact, key-sorted JSON line,
named by the sha256 of the group's content key.  The line is encoded by
`json.dumps`, which runs json's C encoder; `json.dump` would take the
pure-Python one for the same bytes.  An entry is read and written by
the package's one reader and writer, `errors.load_json` and
`errors.write_atomic`.

The eigenspaces of the class matrices are split one class at a time.
Each eigenspace is found by one elimination, a nullspace in the
coordinates of the space it splits, and lifted once: a nullspace basis
vector is 1 at its own free coordinate and 0 at the others, so the
lifted basis is already the identity on the columns those coordinates
stand for, and is kept as it is.

Row order is canonical: ascending degree, then the trivial character
before every other, then descending lexicographic order of the tuple of
value coordinates in the power basis of the cyclotomic field.  The
trivial character is put first by that second key, not by its
coordinates: in Q(zeta_30) a root of unity can have coordinates above
those of 1.
"""

from __future__ import annotations

import json
import os
from operator import mul

from .cyclotomic import Cyclotomic, _convolve, _degree, _make, _power_table, _terms
from .errors import InconsistencyError, InputError, is_int, load_json, write_atomic
from .modp import charpoly, is_prime, nullspace, poly_roots, primitive_root

_FORMAT = 1


def _working_prime(exponent, order):
    """Smallest prime p = 1 (mod exponent) with p*p > 4*order.

    Any such p is coprime to the group order, because each prime
    divisor of the order divides the exponent.
    """
    p = exponent + 1
    while True:
        if p * p > 4 * order and is_prime(p):
            return p
        p += exponent


class CharacterTable:
    """Irreducible complex characters of a finite group, exact values.

    values[i][j] is the value of the i-th character on the j-th
    conjugacy class, as a Cyclotomic of order `exponent`, the group's.
    Rows are in the canonical order of the module docstring (degree,
    trivial first, value coordinates); row 0 is the trivial character.
    """

    __slots__ = ("group", "conj", "exponent", "values", "degrees")

    def __init__(self, group, exponent, values, degrees):
        self.group = group
        self.conj = group.conj
        self.exponent = exponent
        self.values = values
        self.degrees = degrees

    @property
    def count(self):
        return len(self.values)

    @classmethod
    def compute(cls, group):
        e = group.exponent()
        rows = sorted(_dixon(group, e), key=_row_key)
        table = cls(
            group,
            e,
            tuple(tuple(r) for r in rows),
            tuple(int(r[0].to_rational()) for r in rows),
        )
        table._verify()
        return table

    def _verify(self):
        group, conj = self.group, self.conj
        k = conj.count
        if len(self.values) != k:
            raise InconsistencyError(f"{len(self.values)} characters for {k} conjugacy classes")
        squares = sum(d * d for d in self.degrees)
        if squares != group.order:
            raise InconsistencyError(f"degree squares sum to {squares}, not |G| = {group.order}")
        off = {j: v for j, v in enumerate(self.values[0])
               if not v.is_rational() or v.to_rational() != 1}
        if off:
            raise InconsistencyError(
                f"trivial character is not in row 0: row 0 takes {off!r} (class: value), not 1"
            )
        sizes = conj.sizes()
        inv = conj.inverse_class
        n, e = group.order, self.exponent
        # <chi_a, chi_b> = sum_j chi_a(j) chi_b(j^-1) |K_j|, one convolution
        # per pair over the terms of each value, extracted once
        rows = [[tuple(_terms(v.coeffs)) for v in row] for row in self.values]
        weighted = [
            [[(i, c * size) for i, c in row[inv[j]]] for j, size in enumerate(sizes)]
            for row in rows
        ]
        for a in range(k):
            for b in range(a, k):
                acc = _make(e, _convolve(zip(rows[a], weighted[b]), e))
                want = n if a == b else 0
                if not (acc.is_rational() and acc.to_rational() == want):
                    raise InconsistencyError(
                        f"orthogonality fails for character rows {a} and {b}: "
                        f"inner product {acc!r}, expected {want}"
                    )

    # ---- serialization and caching ----

    def to_json(self):
        return {
            "format": _FORMAT,
            "group": self.group.to_json(),
            "exponent": self.exponent,
            "values": [[list(v.coeffs) for v in row] for row in self.values],
        }

    @classmethod
    def from_json(cls, obj, group):
        if not isinstance(obj, dict) or obj.get("format") != _FORMAT:
            raise ValueError("unrecognized character table payload")
        e = obj["exponent"]
        # check the shape before building any value: a foreign exponent
        # would build (and cache) a table in the wrong field
        if not is_int(e) or e != group.exponent():
            raise InconsistencyError("character table exponent differs from the group's")
        rows = obj["values"]
        k = group.conj.count
        if not isinstance(rows, list) or len(rows) != k or any(
            not isinstance(row, list) or len(row) != k for row in rows
        ):
            raise InconsistencyError(f"character table values are not {k} rows of {k}")
        # a float or boolean coefficient passes the exact checks below
        # because 1.0 == True == 1, and would then live on in every value;
        # json gives every integer the exact type int, and a bool its own
        if not all(
            isinstance(coeffs, list) and {int}.issuperset(map(type, coeffs))
            for row in rows
            for coeffs in row
        ):
            raise InconsistencyError("character table coefficients are not integers")
        values = tuple(tuple(Cyclotomic(e, coeffs) for coeffs in row) for row in rows)
        # orthogonality cannot see a permutation of the rows, which would
        # silently relabel every weight built on this table
        keys = [_row_key(row) for row in values]
        if keys != sorted(keys):
            raise InconsistencyError("character table rows are not in canonical order")
        degrees = tuple(int(row[0].to_rational()) for row in values)
        table = cls(group, e, values, degrees)
        table._verify()
        return table

    @classmethod
    def load_or_compute(cls, group, cache_dir=None):
        """Reuse a cached table when possible, else compute and cache it."""
        if cache_dir is None:
            return cls.compute(group)
        import hashlib  # maps OpenSSL; only the cache key needs it

        key = hashlib.sha256(group.content_key().encode()).hexdigest()
        path = os.path.join(cache_dir, f"chartable-{key}.json")
        try:
            return cls.from_json(load_json(path), group)
        except (InputError, ValueError, KeyError, TypeError, InconsistencyError):
            pass  # missing, stale or corrupt entry; recompute below
        table = cls.compute(group)
        text = json.dumps(table.to_json(), sort_keys=True, separators=(",", ":"))
        try:
            write_atomic(path, lambda fh: fh.write(text))
        except InputError:
            pass  # an unwritable cache is skipped; the computed table stands
        return table


def _class_matrix(group, i):
    """A[j][r] = number of x in class i with x^(-1) * rep_r in class j."""
    conj = group.conj
    k = conj.count
    A = [[0] * k for _ in range(k)]
    cls_of = conj.class_of
    reps = conj.reps
    for x in conj.classes[i]:
        xi = group.inverse_index(x)
        for r in range(k):
            A[cls_of[group.mul_index(xi, reps[r])]][r] += 1
    return A


def _restrict(A, basis, pivots, p):
    """Matrix of A on the invariant subspace spanned by a basis that is
    the identity on the columns `pivots`."""
    d = len(basis)
    cols = []
    for b in basis:
        img = [sum(map(mul, row, b)) % p for row in A]
        cols.append([img[pc] for pc in pivots])
    return [[cols[s][t] for s in range(d)] for t in range(d)]


def _split_spaces(group, p):
    """Common eigenvectors of all class matrices over F_p, one per character."""
    k = group.conj.count
    full = [[1 if c == r else 0 for c in range(k)] for r in range(k)]
    spaces = [(full, list(range(k)))]
    for i in range(1, k):
        if all(len(b) == 1 for b, _ in spaces):
            break
        A = _class_matrix(group, i)
        refined = []
        for basis, pivots in spaces:
            if len(basis) == 1:
                refined.append((basis, pivots))
                continue
            R = _restrict(A, basis, pivots, p)
            d = len(R)
            roots = poly_roots(charpoly(R, p), p)
            found = 0
            for root in roots:
                M = [[(R[r][c] - (root if r == c else 0)) % p for c in range(d)] for r in range(d)]
                coords = nullspace(M, p)
                if not coords:
                    continue
                # each cv is 1 at its free coordinate f, its last nonzero
                # one, and 0 at the other free ones, so the lifts are the
                # identity on the columns pivots[f]
                amb = [[sum(map(mul, cv, col)) % p for col in zip(*basis)] for cv in coords]
                free = [max(c for c, x in enumerate(cv) if x) for cv in coords]
                found += len(amb)
                refined.append((amb, [pivots[f] for f in free]))
            if found != d:
                raise InconsistencyError(
                    f"class matrix {i} failed to split a subspace: eigenspaces "
                    f"of total dimension {found} in a subspace of dimension {d}"
                )
        spaces = refined
    left = [len(b) for b, _ in spaces if len(b) != 1]
    if left:
        raise InconsistencyError(f"class matrices did not separate subspaces of dimension {left}")
    return [b[0] for b, _ in spaces]


def _dixon(group, e):
    """All irreducible character rows, unsorted, as lists of Cyclotomic.

    The value chi(r_j) on the class of r_j, of order o, is lifted from
    theta(r_j^s), s < o, by a DFT of length o: the multiplicity of
    zeta_o^c is (1/o) sum_s theta(r_j^s) omega_o^(-cs) mod p.  The
    multiplicities must lie in [0, deg] and sum to deg; the value is
    built in Q(zeta_o) and embedded into Q(zeta_e).
    """
    n = group.order
    conj = group.conj
    k = conj.count
    p = _working_prime(e, n)
    sizes = conj.sizes()
    inv_cls = conj.inverse_class
    vectors = _split_spaces(group, p)

    omega = pow(primitive_root(p), (p - 1) // e, p)
    omega_inv = pow(omega, -1, p)
    size_inv = [pow(sz, -1, p) for sz in sizes]

    # power maps: pm[j][s] = class of rep_j^s for s < o, the order of
    # rep_j; per distinct o, the inverse powers of omega_o = omega^(e/o),
    # 1/o mod p and the power basis of Q(zeta_o)
    pm = []
    lifts = {}
    for r in conj.reps:
        row = [conj.class_of[group.identity_index]]
        cur = r
        while cur != group.identity_index:
            row.append(conj.class_of[cur])
            cur = group.mul_index(cur, r)
        pm.append(row)
        o = len(row)
        if o not in lifts:
            step = pow(omega_inv, e // o, p)
            ipow = [1] * o
            for s in range(1, o):
                ipow[s] = (ipow[s - 1] * step) % p
            lifts[o] = (ipow, pow(o, -1, p), _power_table(o), _degree(o))

    rows = []
    for v, w in enumerate(vectors):
        if w[0] == 0:
            raise InconsistencyError(f"eigenvector {v} vanishes on the identity class")
        scale = pow(w[0], -1, p)
        w = [(x * scale) % p for x in w]
        s = sum(w[r] * w[inv_cls[r]] * size_inv[r] for r in range(k)) % p
        deg_sq = (n * pow(s, -1, p)) % p
        deg = _sqrt_small(deg_sq, p)
        theta = [(deg * w[j] * size_inv[j]) % p for j in range(k)]
        row = []
        for j, pmj in enumerate(pm):
            o = len(pmj)
            ipow, o_inv, table, dim = lifts[o]
            vals = [theta[c] for c in pmj]
            coeffs = [0] * dim
            total = 0
            for c in range(o):
                acc = 0
                for s_, v in enumerate(vals):
                    acc += v * ipow[(c * s_) % o]
                m = (acc * o_inv) % p
                if m > deg:
                    raise InconsistencyError(
                        f"root multiplicity {m} exceeds the degree {deg} "
                        f"at class {j} (element order {o})"
                    )
                total += m
                if m:
                    trow = table[c]
                    for t in range(dim):
                        coeffs[t] += m * trow[t]
            if total != deg:
                raise InconsistencyError(
                    f"root multiplicities sum to {total}, not the degree {deg}, "
                    f"at class {j} (element order {o})"
                )
            row.append(Cyclotomic(o, coeffs).embed(e))
        rows.append(row)
    return rows


def _sqrt_small(a, p):
    """The square root of a mod p lying in (0, p/2), by a scan from 1:
    degrees always lie there, and are at most sqrt(|G|)."""
    a %= p
    for d in range(1, (p + 1) // 2):
        if d * d % p == a:
            return d
    raise InconsistencyError("degree square has no usable square root")


def _row_key(row):
    """Ascending degree, the trivial character first, then descending
    value coordinates."""
    deg = row[0].to_rational()
    trivial = all(v.is_rational() and v.coeffs[0] == 1 for v in row)
    coords = tuple(tuple(-c for c in v.coeffs) for v in row)
    return (deg, not trivial, coords)
