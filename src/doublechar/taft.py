"""Rank-one oracle: the quantum line over a cyclic group, done by brute
force.

Everything downstream trusts closed formulas; this module instead
builds the actual n-dimensional module with explicit matrices over
Q(zeta_n), finds its singular vectors by exact linear algebra, and
reads composition series off the matrix structure alone: the singular
vectors are the basis vectors of the kernel of the raising matrix,
found by elimination, and the series of a weight is the chain cut at
them.  The closed form (head_length, simple_char) is the engine's side;
the CLI compares it once, per weight, with the series read here, and a
mismatch raises OracleError rather than picking a side.

Matrices are lists of sparse rows that store nonzero entries only.
The helpers below are generic: products multiply whatever entries are
stored, and nilpotency is tested as M^n == 0 with M^n formed by repeated
squaring.  The kernel comes from the package's one exact elimination,
`cyclotomic.nullspace`, which needs an inverse only for a pivot row
with more than one entry (a pivot row with no other entry normalises to
1 exactly).  Nothing here knows that the group-likes are diagonal or
that the ladders are single bands.

The n^2 modules are built from 2n + 1 operators, made in one pass:
n raising ladders E_c, one per c = (r + s) mod n, one lowering ladder F
and n diagonal group-likes G_x = diag(q^(x+k)).  Each identity between
operators is checked once (g g' = g' g per pair x < y, g E = q^-1 E g
per (x, c), g F = q F g per x, F^n = 0 once, and E_c^n = 0 and the
kernel of E_c against the tails it keeps once per c); each weight then
checks that its group-likes and F keep the tail from each singular
index, E_c keeping it by how those indices are found.  A pair of an
operator and a cut shared by several weights is scanned once, for the
first weight in (r, s) order that needs it.  Nothing is kept between
calls.

Weights here are named by exponent pairs (r, s): class of the r-th
power of the cycle, character sending the cycle to q^s.  The canonical
row order of the character table does not list exponents in order for
every n, so the translation between (r, s) and row labels goes through
the table values, never through index arithmetic.
"""

from __future__ import annotations

from .cyclotomic import CYC_ONE, Cyclotomic, dot, nullspace, root_exponents, zeta
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
    )

    def __init__(self, n):
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
        system = WeightSystem(group)
        # element sigma^a starts with a, so sorted order puts class a at
        # index a; rows, however, are matched by their generator values,
        # which the verified table of Z_n holds as n distinct n-th roots
        gen_class = system.conj.class_of[group.index[cycle]]
        roots = root_exponents(n)
        row_to_exp = {
            j: roots[row[gen_class].coeffs] for j, row in enumerate(system.tables[0].values)
        }
        self._set(
            n=n,
            q=q,
            powers=tuple(powers),
            system=system,
            exp_to_row={s: j for j, s in row_to_exp.items()},
            row_to_exp=row_to_exp,
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


def raising_coeffs(params, c):
    """Structure constants of the raising action E_c on the chain basis
    of the weights with r + s = c (mod n): index k carries
    [k]_q * (1 - q^(c+k-1)), k = 1..n-1.  [k]_q is built one term at a
    time from the table of powers of q."""
    n, powers = params.n, params.powers
    out = []
    q_int = Cyclotomic.from_rational(0, n)
    for k in range(1, n):
        q_int = q_int + powers[k - 1]
        out.append(q_int * (powers[0] - powers[(c + k - 1) % n]))
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
    """Explicit n-dimensional modules for all n^2 weights of one
    TaftParams, with the composition series read off their matrices.

    The module of (r, s) has the chain basis e_0..e_(n-1) and is acted on
    by the group-likes group_likes[r] and group_likes[s], the raising
    ladder raising[(r + s) % n] and the one lowering ladder.  Each
    operator is a list of sparse rows, dicts column -> entry that store
    nonzero entries only, so a vanishing ladder coefficient is simply
    absent.  series[r, s] lists the composition factors of the module of
    (r, s), top first, as ((r', s'), degree shift)."""

    __slots__ = ("params", "group_likes", "raising", "lowering", "series")

    def __init__(self, params):
        n, powers = params.n, params.powers
        self._set(
            params=params,
            group_likes=tuple(
                _diag([powers[(x + k) % n] for k in range(n)]) for x in range(n)
            ),
            raising=tuple(
                _sparse(n, ((k - 1, k, a) for k, a in enumerate(raising_coeffs(params, c), 1)))
                for c in range(n)
            ),
            lowering=_sparse(n, ((k + 1, k, CYC_ONE) for k in range(n - 1))),
        )
        singular = self._check_identities()
        checked = set()
        self._set(
            series={
                rs: self._weight_series(*rs, singular[sum(rs) % n], checked)
                for rs in params.all_rs()
            }
        )

    def _check_identities(self):
        """Checks each identity between the operators once and returns,
        for each c, the singular indices of E_c: the supports of its
        kernel other than e_0."""
        n = self.params.n
        q, q_inv = self.params.powers[1], self.params.powers[n - 1]
        gs, es, f = self.group_likes, self.raising, self.lowering

        # group-likes commute and scale the ladder operators by q^(-1)/q
        for x, g in enumerate(gs):
            for y in range(x + 1, n):
                _expect(f"G_{x}, G_{y}", "g g' = g' g", _mat_mul(g, gs[y]), _mat_mul(gs[y], g))
            for c, e in enumerate(es):
                _expect(f"G_{x}, E_{c}", "g E = q^-1 E g",
                        _mat_mul(g, e), _scale(_mat_mul(e, g), q_inv))
            _expect(f"G_{x}, F", "g F = q F g", _mat_mul(g, f), _scale(_mat_mul(f, g), q))

        # nilpotency; no zero is ever stored, so the zero matrix has empty rows
        _expect("F", "F^n = 0", _mat_pow(f, n), [{}] * n)
        singular = []
        for c, e in enumerate(es):
            _expect(f"E_{c}", "E^n = 0", _mat_pow(e, n), [{}] * n)
            # singular vectors: the kernel, computed by exact elimination,
            # must be spanned by e_0 and one basis vector e_k per cut k
            # whose tail span E keeps, and by nothing else
            cuts = [k for k in range(1, n) if _tail_invariant(e, k)]
            supports = sorted(sorted(vec) for vec in nullspace(e, n))
            _expect(f"E_{c}", "supports of the kernel of E = [0] and each cut whose tail E keeps",
                    supports, [[k] for k in (0, *cuts)])
            singular.append(cuts)
        return singular

    def _weight_series(self, r, s, singular, checked):
        """Checks that every operator of the weight (r, s) keeps the tail
        span from each singular index and returns the segments of the
        chain between them.  E_c keeps those tails by how its singular
        indices are found; checked holds the (operator, cut) pairs that
        earlier weights have already passed, which are not scanned again."""
        n = self.params.n
        for k in singular:
            for op, mat in ((f"G_{r}", self.group_likes[r]), (f"G_{s}", self.group_likes[s]),
                            ("F", self.lowering)):
                if (op, k) not in checked:
                    _expect(f"Verma of ({r},{s})", f"{op} keeps the span from e_{k}",
                            _tail_invariant(mat, k), True)
                    checked.add((op, k))
        return tuple((((r + a) % n, (s + a) % n), -a) for a in (0, *singular))


def _expect(where, identity, left, right):
    if left != right:
        raise OracleError(f"{where}: {identity} fails: {left} against {right}")


# ---- sparse matrix helpers over the cyclotomics ----
#
# A matrix is a list of dicts column -> nonzero Cyclotomic.  Since no
# zero is ever stored, two matrices are equal exactly when their rows
# have the same key sets and equal values, which is what list and dict
# equality compare.


def _row(items):
    return {j: x for j, x in items if not x.is_zero()}


def _sparse(n, entries):
    """n x n matrix from (row, col, value) triples; zero values are dropped."""
    m = [{} for _ in range(n)]
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
