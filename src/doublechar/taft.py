"""Rank-one oracle: the quantum line over a cyclic group, done by brute
force.

Everything downstream trusts closed formulas; this module instead
builds the actual n-dimensional module with explicit matrices over
Q(zeta_n), scans for singular vectors by exact linear algebra, and
reads composition series off the matrix structure.  Closed-form and
matrix routes are compared at every step: the kernel of the raising
matrix, found by elimination, must sit exactly where the head-length
formula (1 - r - s) mod n puts the singular vector.  A mismatch raises
OracleError rather than picking a side.

Matrices are lists of sparse rows that store nonzero entries only.
The helpers below are generic: products multiply whatever entries are
stored, and nilpotency is tested as M^n == 0 with M^n formed by repeated
squaring.  The kernel comes from the package's one exact elimination,
`cyclotomic.nullspace`, which needs an inverse only for a pivot row
with more than one entry (a pivot row with no other entry normalises to
1 exactly).  Nothing here knows that the group-likes are diagonal or
that the ladders are single bands.

The n^2 modules share their operators: n raising ladders E_c, one per
c = (r + s) mod n, one lowering ladder F and n diagonal group-likes
G_x = diag(q^(x+k)), so 2n + 1 matrices in all, built once per
TaftParams on first use.  Each identity is checked once per distinct
operand tuple (E^n = 0 and the kernel of E_c once per c, F^n = 0 once,
g F = q F g once per x, g E = q^-1 E g once per (x, c), g1 g2 = g2 g1
once per unordered {r, s}); the checks that depend on the weight itself
run for every weight.

Weights here are named by exponent pairs (r, s): class of the r-th
power of the cycle, character sending the cycle to q^s.  The canonical
row order of the character table does not list exponents in order for
every n, so the translation between (r, s) and row labels goes through
the table values, never through index arithmetic.
"""

from __future__ import annotations

from .cyclotomic import CYC_ONE, CYC_ZERO, Cyclotomic, dot, nullspace, zeta
from .errors import Frozen, InputError, OracleError
from .graded import GradedChar, KElement
from .groups import FiniteGroup
from .nichols import NicholsProfile, SimpleTable
from .weights import Weight, WeightSystem


class TaftParams(Frozen):
    """Cyclic group of order n with a fixed primitive root of unity q,
    its powers q^0..q^(n-1), and the exponent-to-row translation for
    its weights."""

    __slots__ = (
        "n",
        "q",
        "powers",
        "system",
        "exp_to_row",
        "row_to_exp",
        "_operators",
        "_verified",
    )

    def __init__(self, n, cache_dir=None):
        if not isinstance(n, int) or n < 2:
            raise InputError("the cyclic rank-one case needs an integer n >= 2")
        q = zeta(n)
        powers = [zeta(n, 0)]
        for _ in range(1, n):
            powers.append(powers[-1] * q)
        # powers[0] is 1 at order n, so no comparison leaves that order
        ones = [k for k in range(1, n) if powers[k] == powers[0]]
        if powers[-1] * q != powers[0] or ones:
            raise OracleError(
                f"chosen root of unity q = {q} is not primitive of order {n}: "
                f"q^{n} = {powers[-1] * q}, expected 1; q^k = 1 for k in {ones}, expected none"
            )
        cycle = tuple((i + 1) % n for i in range(n))
        group = FiniteGroup.from_generators(n, [cycle])
        system = WeightSystem(group, cache_dir=cache_dir)
        # element sigma^a starts with a, so sorted order puts class a at
        # index a; rows, however, must be matched by table values
        table = system.tables[0]
        if table.count != n or system.conj.count != n:
            raise OracleError(
                f"cyclic group data has the wrong shape: {table.count} characters and "
                f"{system.conj.count} classes, expected {n} of each"
            )
        exp_to_row = {}
        gen_class = system.conj.class_of[group.index[cycle]]
        for s in range(n):
            target = zeta(n, s)
            hits = [
                j for j in range(table.count) if table.values[j][gen_class] == target
            ]
            if len(hits) != 1:
                raise OracleError(
                    f"characters with generator value q^{s} = {target}: rows {hits}, "
                    f"expected exactly one"
                )
            exp_to_row[s] = hits[0]
        # _operators and _verified are shared by the n^2 VermaMatrices:
        # the distinct operators, keyed ("E", c), ("F",) and ("G", x), and
        # the operand tuples whose identities hold; a module adds to them
        # only after every check of its weight has passed
        self._set(
            n=n,
            q=q,
            powers=tuple(powers),
            system=system,
            exp_to_row=exp_to_row,
            row_to_exp={j: s for s, j in exp_to_row.items()},
            _operators={},
            _verified=set(),
        )

    def weight_of(self, r, s):
        """The weight with class exponent r and character exponent s."""
        return Weight(r % self.n, self.exp_to_row[s % self.n])

    def rs_of(self, w):
        return (w.class_index, self.row_to_exp[w.irrep_index])

    def aliases(self):
        """label -> "r,s" display names for every weight."""
        out = {}
        for w in self.system.weights:
            r, s = self.rs_of(w)
            out[w.label] = f"{r},{s}"
        return out

    def all_rs(self):
        return [(r, s) for r in range(self.n) for s in range(self.n)]


def lowering_coeffs(params, r, s):
    """Structure constants of the raising action on the chain basis:
    index k carries [k]_q * (1 - q^(r+s+k-1)), k = 1..n-1.  [k]_q is
    built one term at a time from the table of powers of q."""
    n, powers = params.n, params.powers
    out = []
    q_int = Cyclotomic.from_rational(0, n)
    for k in range(1, n):
        q_int = q_int + powers[k - 1]
        out.append(q_int * (powers[0] - powers[(r + s + k - 1) % n]))
    return out


def head_length(params, r, s):
    """First k with a vanishing chain coefficient, or n if none vanishes.

    [k]_q is nonzero for 0 < k < n, so rung k vanishes exactly when
    q^(r+s+k-1) = 1, that is when k = 1 - r - s (mod n)."""
    return (1 - r - s) % params.n or params.n


def simple_char(params, r, s):
    """Graded character of the simple head: the first head_length rungs
    of the chain, one degree apiece."""
    d = head_length(params, r, s)
    return GradedChar(
        {-k: KElement.of(params.weight_of(r + k, s + k)) for k in range(d)}
    )


def build_profile_and_table(params):
    """Profile with single-weight components (j, j) and the full simple
    table over all n^2 weights."""
    n = params.n
    components = [KElement.of(params.weight_of(j, j)) for j in range(n)]
    profile = NicholsProfile(params.system, components)
    entries = {}
    for r, s in params.all_rs():
        entries[params.weight_of(r, s)] = simple_char(params, r, s)
    return profile, SimpleTable(params.system, entries)


class VermaMatrices(Frozen):
    """Explicit n-dimensional module for one weight: two diagonal
    group-like actions, a raising and a lowering ladder operator, plus
    the verification results derived from them.

    Each operator is a list of sparse rows: vm.raising[i][j] reads a
    stored entry or zero, and a vanishing ladder coefficient is simply
    not stored.  The operators are shared by all n^2 modules of one
    TaftParams (g1 = G_r, g2 = G_s, raising = E_c with c = (r + s) mod n,
    one lowering F), so they must not be mutated, and each identity
    between them is checked once per distinct operand tuple."""

    __slots__ = (
        "params",
        "r",
        "s",
        "g1",
        "g2",
        "raising",
        "lowering",
        "singular_indices",
        "head_dim",
        "series",
    )

    def __init__(self, params, r, s):
        n = params.n
        powers = params.powers
        r %= n
        s %= n
        shared = params._operators
        built = {}

        def operator(key, build):
            if key in shared:
                return shared[key]
            if key not in built:
                built[key] = build()
            return built[key]

        def group_like(x):
            return operator(("G", x), lambda: _diag([powers[(x + k) % n] for k in range(n)]))

        def raising():
            # lowering_coeffs reads r and s only through (r + s) mod n
            coeffs = lowering_coeffs(params, r, s)
            return _sparse(n, ((k - 1, k, coeffs[k - 1]) for k in range(1, n)))

        self._set(
            params=params,
            r=r,
            s=s,
            g1=group_like(r),
            g2=group_like(s),
            raising=operator(("E", (r + s) % n), raising),
            lowering=operator(
                ("F",), lambda: _sparse(n, ((k + 1, k, CYC_ONE) for k in range(n - 1)))
            ),
        )
        checked = self._verify()
        shared.update(built)
        params._verified.update(checked)

    def _verify(self):
        """Runs this weight's checks in a fixed order and returns the
        operand tuples it checked.  A check whose tuple already holds,
        for an earlier weight or earlier for this one, is skipped: the
        same operators give the same result."""
        params, n = self.params, self.params.n
        verified = params._verified
        q, q_inv = params.powers[1], params.powers[n - 1]
        r, s = self.r, self.s
        c = (r + s) % n
        g1, g2, e, f = self.g1, self.g2, self.raising, self.lowering
        checked = set()

        def first_time(*operands):
            if operands in verified or operands in checked:
                return False
            checked.add(operands)
            return True

        def expect(identity, left, right):
            if left != right:
                raise OracleError(
                    f"Verma of ({r},{s}): {identity} fails: {left} against {right}"
                )

        # distinct diagonal weights: every invariant subspace is then a
        # span of basis vectors
        pairs = {((r + k) % n, (s + k) % n) for k in range(n)}
        expect("distinct chain weights = n", len(pairs), n)

        # group-likes commute and scale the ladder operators by q^(-1)/q
        if first_time("g g", min(r, s), max(r, s)):
            expect("g1 g2 = g2 g1", _mat_mul(g1, g2), _mat_mul(g2, g1))
        for name, x, g in (("g1", r, g1), ("g2", s, g2)):
            if first_time("g E", x, c):
                expect(f"{name} E = q^-1 E {name}", _mat_mul(g, e), _scale(_mat_mul(e, g), q_inv))
            if first_time("g F", x):
                expect(f"{name} F = q F {name}", _mat_mul(g, f), _scale(_mat_mul(f, g), q))

        # nilpotency; no zero is ever stored, so the zero matrix has empty rows
        if first_time("E^n", c):
            expect("E^n = 0", _mat_pow(e, n), [{}] * n)
        if first_time("F^n"):
            expect("F^n = 0", _mat_pow(f, n), [{}] * n)

        # singular vectors: kernel of the raising matrix, computed by
        # exact elimination, must consist of basis vectors, sitting where
        # the head-length formula puts them
        head = head_length(params, r, s)
        singular = [head] if head < n else []
        if first_time("ker E", c):
            supports = sorted(sorted(vec) for vec in nullspace(e, n))
            expect("supports of the kernel of E = [0], [head length]", supports,
                   [[k] for k in (0, *singular)])

        # the span of the tail from the first singular index is a
        # submodule; any cut above it fails to be one
        if head < n:
            for name, mat in (("g1", g1), ("g2", g2), ("E", e), ("F", f)):
                expect(f"{name} keeps the span from e_{head}", _tail_invariant(mat, head), True)
            if first_time("first tail of E", c):
                first = next(cut for cut in range(1, n) if _tail_invariant(e, cut))
                expect("first tail that E keeps = head length", first, head)

        # composition series: segments of the chain between singular indices
        cuts = [0] + singular + [n]
        series = []
        for a, b in zip(cuts, cuts[1:]):
            fr, fs = (r + a) % n, (s + a) % n
            expect(f"head length of ({fr},{fs}) = length of segment [{a},{b})",
                   head_length(params, fr, fs), b - a)
            series.append(((fr, fs), -a))
        self._set(singular_indices=tuple(singular), head_dim=head, series=tuple(series))
        return checked


# ---- sparse matrix helpers over the cyclotomics ----
#
# A matrix is a list of _Row dicts column -> nonzero Cyclotomic.  Since
# no zero is ever stored, two matrices are equal exactly when their rows
# have the same key sets and equal values, which is what list and dict
# equality compare.


class _Row(dict):
    """Sparse matrix row; an absent column reads as zero and is not inserted."""

    __slots__ = ()

    def __missing__(self, col):
        return CYC_ZERO


def _row(items):
    return _Row((j, x) for j, x in items if not x.is_zero())


def _sparse(n, entries):
    """n x n matrix from (row, col, value) triples; zero values are dropped."""
    m = [_Row() for _ in range(n)]
    for i, j, x in entries:
        if not x.is_zero():
            m[i][j] = x
    return m


def _diag(values):
    return _sparse(len(values), ((i, i, x) for i, x in enumerate(values)))


def _scale(m, c):
    return [_row((j, x * c) for j, x in row.items()) for row in m]


def _mat_mul(a, b):
    """Product of two sparse matrices: each output entry is one dot()
    over the inner indices where both factors have a stored entry, or a
    single product when there is one such index."""
    out = []
    for row in a:
        terms = {}
        for k, x in row.items():
            for j, y in b[k].items():
                xs, ys = terms.setdefault(j, ([], []))
                xs.append(x)
                ys.append(y)
        out.append(
            _row(
                (j, xs[0] * ys[0] if len(xs) == 1 else dot(xs, ys))
                for j, (xs, ys) in terms.items()
            )
        )
    return out


def _mat_pow(m, e):
    """m^e by repeated squaring."""
    out = None
    while e:
        if e & 1:
            out = m if out is None else _mat_mul(out, m)
        e >>= 1
        if e:
            m = _mat_mul(m, m)
    return _diag([CYC_ONE] * len(m)) if out is None else out


def _tail_invariant(mat, cut):
    """True when columns cut..n-1 have support only in rows cut..n-1."""
    return all(
        x.is_zero() for row in mat[:cut] for j, x in row.items() if j >= cut
    )
