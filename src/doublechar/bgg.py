"""Reciprocity engine: simple-basis decompositions, projective covers,
induced modules and tensor products of projectives.

Everything here is character bookkeeping over the Laurent ring.  A
report is fixed by its decomposition matrix D = [M(lam) : L(mu)]: by BGG
reciprocity the standard multiplicities of the projective cover of mu
are the bar of column mu of D, the costandard ones a twisted shift of
it, and the Cartan matrix is bar(D)^T D.  Induced modules decompose
against the weight series of the simples.  The engine consumes
profiles, simple tables and composition matrices that their
constructors have already validated and completed, so it only
computes; it never tries to prove that the filtrations exist.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclotomic import rref
from .errors import Frozen, InconsistencyError, InputError, SpanError, field, is_int
from .graded import GradedChar, KElement, add_scaled, combine
from .laurent import LaurentInt
from .nichols import ind_char

SIMPLE_PROJECTIVE = "simple_projective"
NON_SIMPLE = "non_simple"


def decompose_into_simples(char, table):
    """Coefficients of a graded character in the simple basis.

    Eliminates leading terms from the top degree down; each simple
    character starts with its own weight in degree 0, so the top layer
    of the residual is always read off verbatim.  The residual is one
    accumulator, degree -> {weight: coefficient}, from which m * L(w)
    shifted by d is subtracted in place, dropping each coefficient and
    layer that reaches zero.  Raises SpanError when a coefficient would
    be negative; it carries the residual at that step, as a GradedChar.
    """
    out = {}
    residual = {d: dict(layer.terms) for d, layer in char.terms.items()}
    # each pass clears the top layer, since layer 0 of L(w) is exactly w, and
    # subtracts only nonnegative terms below it: the positive mass drops by >= 1
    while residual:
        d = max(residual)
        for w, m in sorted(residual[d].items()):
            if m < 0:
                raise SpanError(
                    f"character is not in the nonnegative span of the simples: "
                    f"weight {w} has coefficient {m} at degree {d}",
                    residual=GradedChar._new(
                        {e: KElement._new(terms) for e, terms in residual.items()}
                    ),
                )
            out.setdefault(w, {})[d] = m
            add_scaled(residual, table[w], -m, d)
    return {w: LaurentInt(terms) for w, terms in sorted(out.items())}


class BGGReport:
    """All reciprocity data for one profile and simple table, fixed by its
    decomposition matrix.

    Matrix rows and columns are indexed by weights in canonical order.
    verma_simple = D, with D[lam][mu] the graded multiplicity of the
    simple mu in the Verma of lam, is the one input; the constructor
    derives the rest.  BGG reciprocity gives projective_verma[mu][lam] =
    bar(D[lam][mu]), the multiplicity of the Verma of lam in the
    projective cover of mu; the Cartan matrix is C = bar(D)^T D; and a
    Verma is simple projective exactly when its only composition factor
    is its own simple, once, in degree 0.  The costandard matrix
    projective_coverma and the assembled characters projective_chars
    need a graded profile: bgg_matrices sets them, and a report built
    from ungraded composition multiplicities leaves them None.
    """

    __slots__ = ("system", "weights", "n_top", "verma_simple", "projective_verma",
                 "projective_coverma", "projective_chars", "cartan", "flags")

    def __init__(self, system, n_top, verma_simple):
        weights = list(system.weights)
        self.system = system
        self.weights = weights
        self.n_top = n_top
        self.verma_simple = verma_simple
        # one pass over the nonzero entries of D transposes it
        self.projective_verma = {mu: {} for mu in weights}
        for lam, row in verma_simple.items():
            for mu, coeff in row.items():
                self.projective_verma[mu][lam] = coeff.bar()
        # cartan[mu][nu] = sum over lam of projective_verma[mu][lam] *
        # verma_simple[lam][nu]
        self.cartan = {}
        for mu in weights:
            row = {}
            for lam, coeff in self.projective_verma[mu].items():
                for nu, m in verma_simple[lam].items():
                    row[nu] = row.get(nu, LaurentInt.zero()) + coeff * m
            self.cartan[mu] = {nu: c for nu, c in sorted(row.items()) if not c.is_zero()}
        simple = {lam for lam in weights if verma_simple[lam] == {lam: LaurentInt.one()}}
        self.flags = {lam: SIMPLE_PROJECTIVE if lam in simple else NON_SIMPLE for lam in weights}
        self.projective_coverma = None
        self.projective_chars = None

    def at_one(self):
        """The report with every grading collapsed at t = 1.

        A fresh report is built from D(1), so the reciprocity fields are
        derived again rather than mapped; only the costandard matrix and
        the projective characters are collapsed here.  Every coefficient
        of D is positive, so D(1) has the keys of D and the flags agree."""
        flat = BGGReport(self.system, self.n_top, _at_one(self.verma_simple))
        if self.projective_chars is not None:
            flat.projective_coverma = _at_one(self.projective_coverma)
            flat.projective_chars = {
                w: GradedChar({0: ch.eval_one()}) for w, ch in self.projective_chars.items()
            }
        return flat

    def dim_projective(self, mu, dim_b):
        return sum(
            coeff.eval_one() * dim_b * self.system.dim(lam)
            for lam, coeff in self.projective_verma[mu].items()
        )

    def to_json(self):
        def matrix(m):
            return {
                row.label: {
                    col.label: coeff.to_json() for col, coeff in sorted(m[row].items())
                }
                for row in sorted(m)
            }

        obj = {
            "format": 1,
            "kind": "bgg_report",
            "weights": [w.label for w in self.weights],
            "n_top": self.n_top,
            "verma_simple": matrix(self.verma_simple),
            "projective_verma": matrix(self.projective_verma),
            "cartan": matrix(self.cartan),
            "flags": {w.label: self.flags[w] for w in self.weights},
        }
        if self.projective_coverma is not None:
            obj["projective_coverma"] = matrix(self.projective_coverma)
        if self.projective_chars is not None:
            obj["projective_chars"] = {
                w.label: self.projective_chars[w].to_json() for w in self.weights
            }
        return obj


def _at_one(matrix):
    return {
        row: {col: LaurentInt.monomial(c.eval_one()) for col, c in entries.items()}
        for row, entries in matrix.items()
    }


def bgg_matrices(profile, table):
    """The full reciprocity report for a graded profile and simple table.

    Only the decomposition of each Verma into simples can fail (SpanError,
    when the table does not span it).  The rest is read off D, and the
    profile's 'self-dual' invariant, W(lam) = t^n_top M(lambda_ov (x) lam),
    makes each projective's costandard filtration its standard one term
    by term."""
    weights = profile.system.weights
    report = BGGReport(
        profile.system,
        profile.n_top,
        {lam: decompose_into_simples(profile.vermas[lam], table) for lam in weights},
    )
    # the Verma whose composition series governs W(lam) is that of the
    # top-twisted kap = lambda_ov (x) lam, and lam = twist_v[kap]
    report.projective_coverma = {
        mu: {profile.twist_v[kap]: c.shift(-profile.n_top) for kap, c in column.items()}
        for mu, column in report.projective_verma.items()
    }
    report.projective_chars = {
        mu: combine(report.projective_verma[mu], profile.vermas) for mu in weights
    }
    return report


def ind_into_projectives(profile, table, mu, report):
    """Decompose the module induced from the weight mu into projectives.

    The coefficient of the projective of lam is the bar of the series
    with which mu appears in the simple of lam.  Cross-checked against
    the product formula for the induced character.
    """
    system = profile.system
    out = {}
    for lam in system.weights:
        series = table[lam].series(mu)
        if series is not None:
            out[lam] = series.bar()
    expanded = combine(out, report.projective_chars)
    expected = ind_char(profile, mu)
    if expanded != expected:
        raise InconsistencyError(
            f"projective expansion of the induced module of {mu} does not "
            f"match its character: expanded {expanded!r}, expected {expected!r}"
        )
    return out


def tensor_projectives(report, profile, mu, nu):
    """Expand the tensor product of two projective covers into induced
    modules: sum over pairs of a costandard coefficient of the first
    and a standard coefficient of the second, attached to the fusion
    of the indexing weights.  Returns weight -> Laurent coefficient."""
    system = profile.system
    out = {}
    for lam, c_w in report.projective_coverma[mu].items():
        for kap, c_m in report.projective_verma[nu].items():
            coeff = c_w * c_m
            if coeff.is_zero():
                continue
            for omega, n in system.fusion(lam, kap).items():
                cur = out.get(omega, LaurentInt.zero())
                out[omega] = cur + coeff * n
    out = {w: c for w, c in sorted(out.items()) if not c.is_zero()}
    dim_b = profile.dim_b
    dim_ind = dim_b * dim_b
    got = sum(c.eval_one() * dim_ind * system.dim(w) for w, c in out.items())
    want = report.dim_projective(mu, dim_b) * report.dim_projective(nu, dim_b)
    if got != want:
        raise InconsistencyError(
            f"tensor of projectives of {mu} and {nu} has dimension {got}, "
            f"expected {want}"
        )
    return out


class MLMatrixData(Frozen):
    """Ungraded composition multiplicities [Verma : simple], as shipped
    for examples whose graded refinement is not available; complete and
    validated once built, one row for every weight."""

    __slots__ = ("rows", "dim_b", "n_top")
    KIND = "ml_matrix"

    def __init__(self, system, rows, dim_b, n_top):
        for lam, k in rows.items():
            if not k.is_nonnegative():
                raise InputError(f"multiplicity row of {lam} has a negative entry")
            if k.multiplicity(lam) < 1:
                raise InputError(f"multiplicity row of {lam} must contain its own weight")
        _check_dims(rows, dim_b, system)
        missing = [w.label for w in system.weights if w not in rows]
        if missing:
            raise InputError(
                "composition matrix is incomplete; missing rows for " + ", ".join(missing)
            )
        self._set(rows=dict(rows), dim_b=dim_b, n_top=n_top)

    @classmethod
    def from_json(cls, obj, system):
        if not isinstance(obj, dict) or obj.get("kind") != cls.KIND:
            raise InputError("expected an ml_matrix payload")
        rows = {}
        for item in field(obj, "rows", list, "ml_matrix payload"):
            lam = system.parse_label(field(item, "w", str, "ml_matrix row"))
            if lam in rows:
                raise InputError(f"duplicate multiplicity row for {lam.label}")
            rows[lam] = KElement.from_json(
                field(item, "factors", list, "ml_matrix row"), system, "ml_matrix factor"
            )
        dim_b = obj.get("dim_b")
        n_top = obj.get("n_top")
        if not is_int(dim_b) or dim_b < 1:
            raise InputError("ml_matrix payload needs a positive dim_b")
        if not is_int(n_top) or n_top < 0:
            raise InputError("ml_matrix payload needs a nonnegative n_top")
        return cls(system, rows, dim_b, n_top)


def _check_dims(rows, dim_b, system):
    """Certify the simple dimensions that the matrix pins down.

    Row lam says sum over w of [M(lam):L(w)] dim L(w) = dim M(lam).  The
    equations must be consistent, and every dim L(w) that they determine
    must come out a positive integer; the free ones certify nothing.
    The augmented rows go through the shared exact elimination
    `cyclotomic.rref` over the rationals, with dim M(lam) in column k."""
    weights = sorted(rows)
    k = len(weights)
    idx = {w: i for i, w in enumerate(weights)}
    aug = []
    for lam in weights:
        row = {}
        for w, m in rows[lam].terms.items():
            if w not in idx:
                raise InputError(
                    f"row of {lam} mentions {w}, which has no row of its own"
                )
            row[idx[w]] = Fraction(m)
        row[k] = Fraction(dim_b * system.dim(lam))
        aug.append(row)
    # a pivot in column k is the equation 0 = 1; a column without a
    # pivot is a free dimension
    reduced, pivots = rref(aug, k + 1)
    if pivots and pivots[-1] == k:
        raise InconsistencyError(
            "composition matrix admits no simple dimensions: its rows are "
            "inconsistent"
        )
    free = set(range(k)).difference(pivots)
    for row, c in zip(reduced, pivots):
        v = row.get(k, Fraction(0))
        pinned = free.isdisjoint(row)
        if pinned and (v.denominator != 1 or v <= 0):
            raise InconsistencyError(
                "composition matrix does not admit positive integral "
                f"simple dimensions: dim L({weights[c]}) = {v}"
            )


def ungraded_bgg(ml, system):
    """Reciprocity report from ungraded composition multiplicities: every
    Laurent entry is a constant, and the fields that need the grading
    stay None."""
    return BGGReport(
        system,
        ml.n_top,
        {
            lam: {w: LaurentInt.monomial(m) for w, m in row.items()}
            for lam, row in sorted(ml.rows.items())
        },
    )
