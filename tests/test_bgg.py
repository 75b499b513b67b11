import json
import pathlib

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doublechar.bgg import (
    MLMatrixData,
    NON_SIMPLE,
    SIMPLE_PROJECTIVE,
    bgg_matrices,
    decompose_into_simples,
    ind_into_projectives,
    tensor_projectives,
    ungraded_bgg,
)
from doublechar.errors import InconsistencyError, InputError, SpanError
from doublechar.graded import GradedChar, KElement, combine
from doublechar.laurent import LaurentInt
from doublechar.nichols import (
    NicholsProfile,
    SimpleTable,
    coverma_char,
    ind_char,
    verma_char,
)
from doublechar.taft import TaftParams, build_profile_and_table
from doublechar.weights import WeightSystem
from doublechar.groups import FiniteGroup
from doublechar.jsonio import load_group_file

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"

T = LaurentInt.monomial(1, 1)
ONE = LaurentInt.one()


def test_decompose_verma(taft3):
    params, profile, table = taft3
    lam = params.weight_of(0, 2)
    out = decompose_into_simples(verma_char(profile, lam), table)
    assert out == {
        params.weight_of(0, 2): ONE,
        params.weight_of(2, 1): LaurentInt.monomial(1, -2),
    }
    simple = params.weight_of(2, 2)
    assert decompose_into_simples(verma_char(profile, simple), table) == {simple: ONE}


def test_decompose_simple_combination(taft3):
    params, _, table = taft3
    a, b = params.weight_of(1, 0), params.weight_of(0, 2)
    ch = table[a].scale(LaurentInt({0: 2, -1: 1})) + table[b].shift(3)
    out = decompose_into_simples(ch, table)
    assert out == {a: LaurentInt({0: 2, -1: 1}), b: LaurentInt.monomial(1, 3)}


def test_decompose_failure_carries_residual(taft3):
    params, _, table = taft3
    bad = GradedChar.of(params.weight_of(0, 0)) - GradedChar.of(
        params.weight_of(1, 1), deg=-1
    )
    with pytest.raises(SpanError) as exc:
        decompose_into_simples(bad, table)
    assert isinstance(exc.value.residual, GradedChar)
    assert not exc.value.residual.is_zero()


def test_decompose_needs_matching_entries(taft3):
    # every weight has an entry, so the elimination always finds the
    # simple it needs; a single weight whose simple is longer leaves the
    # negative lower layers of that simple, which no simple can cancel
    params, profile, table = taft3
    for w in profile.system.weights:
        if table[w] == GradedChar.of(w):
            assert decompose_into_simples(GradedChar.of(w, deg=2), table) == {
                w: LaurentInt.monomial(1, 2)
            }
        else:
            with pytest.raises(SpanError, match="nonnegative span") as exc:
                decompose_into_simples(GradedChar.of(w), table)
            assert exc.value.residual == GradedChar.of(w) - table[w]


@functools.lru_cache(maxsize=None)
def _taft(n):
    """The taft n profile and simple table."""
    return build_profile_and_table(TaftParams(n))


@st.composite
def taft_simple_combinations(draw):
    """A taft n = 2..6 simple table and a random nonnegative Laurent
    combination of its simples."""
    n = draw(st.integers(2, 6))
    _, table = _taft(n)
    weights = table.weights()
    picked = draw(st.lists(st.sampled_from(weights), max_size=6, unique=True))
    coeff = st.dictionaries(st.integers(-4, 4), st.integers(1, 3), min_size=1, max_size=3)
    return table, {w: LaurentInt(draw(coeff)) for w in picked}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(taft_simple_combinations())
def test_decompose_recovers_nonnegative_combinations(case):
    # the elimination loop ends without a step guard and returns exactly
    # the coefficients the character was built from
    table, coeffs = case
    assert decompose_into_simples(combine(coeffs, table), table) == dict(sorted(coeffs.items()))


def test_report_projective_rows(taft3, taft3_report):
    params, profile, _ = taft3
    mu = params.weight_of(2, 1)
    row = taft3_report.projective_verma[mu]
    assert row == {mu: ONE, params.weight_of(0, 2): LaurentInt.monomial(1, 2)}
    assert taft3_report.dim_projective(mu, profile.dim_b) == 6
    for w, flag in taft3_report.flags.items():
        simple = taft3_report.verma_simple[w] == {w: ONE}
        assert flag == (SIMPLE_PROJECTIVE if simple else NON_SIMPLE)


def test_simple_projective_set(taft3_report):
    got = {
        (w.class_index, w.irrep_index)
        for w, f in taft3_report.flags.items()
        if f == SIMPLE_PROJECTIVE
    }
    assert got == {(0, 1), (1, 0), (2, 2)}


def test_graded_reciprocity_transpose(taft3_report):
    r = taft3_report
    for mu in r.weights:
        for lam in r.weights:
            p = r.projective_verma[mu].get(lam, LaurentInt.zero())
            m = r.verma_simple[lam].get(mu, LaurentInt.zero())
            assert p == m.bar()
            assert p.eval_one() == m.eval_one()
            # no projective coefficient has a negative degree
            assert not p or p.min_degree() >= 0
        # each projective starts with its own Verma, once, in degree 0
        assert r.projective_verma[mu][mu].terms.get(0) == 1


def test_simple_reassembly(taft3, taft3_report):
    params, profile, table = taft3
    for lam in profile.system.weights:
        total = GradedChar.zero()
        for mu, coeff in taft3_report.verma_simple[lam].items():
            total = total + table[mu].scale(coeff)
        assert total == verma_char(profile, lam)


# self-dual profiles over S3, read with the cut table L(lam) = lam: FK3's
# Hilbert series 1, 3, 4, 3, 1, and two of top degree 2 over the sign
S3_PROFILES = {
    "fk3": [["g0r0"], ["g1r1"], ["g2r1", "g2r2"], ["g1r1"], ["g0r0"]],
    "sign-g0r2": [["g0r0"], ["g0r2"], ["g0r1"]],
    "sign-g1": [["g0r0"], ["g1r0", "g1r1"], ["g0r1"]],
}
REPORT_CASES = [f"taft{n}" for n in range(2, 9)] + [f"s3-{k}" for k in S3_PROFILES]


@functools.lru_cache(maxsize=None)
def _report_case(case):
    """Profile, simple table and report of a taft n profile with its own
    table, or of a self-dual S3 profile with the cut table."""
    if case.startswith("taft"):
        profile, table = _taft(int(case[4:]))
    else:
        system = WeightSystem(load_group_file(DATA / "s3_group.json"))
        profile = NicholsProfile(system, [
            KElement({system.by_label[w]: 1 for w in comp})
            for comp in S3_PROFILES[case[3:]]
        ])
        table = SimpleTable(system, {w: GradedChar.of(w) for w in system.weights})
    return profile, table, bgg_matrices(profile, table)


@pytest.mark.parametrize("case", REPORT_CASES)
def test_costandard_matrix_is_the_twisted_bar_of_d(case):
    # projective_coverma[mu][lam] = bar(D[lambda_ov * lam][mu]) t^-n_top,
    # read entry by entry off D rather than off projective_verma
    profile, table, r = _report_case(case)
    D = r.verma_simple
    twist_ov = {b: lam for lam, b in profile.twist_v.items()}
    for mu in r.weights:
        expected = {
            lam: D[twist_ov[lam]][mu].bar().shift(-profile.n_top)
            for lam in r.weights
            if mu in D[twist_ov[lam]]
        }
        assert r.projective_coverma[mu] == expected
        assert r.projective_verma[mu] == {lam: D[lam][mu].bar() for lam in r.weights if mu in D[lam]}


@pytest.mark.parametrize("case", REPORT_CASES)
def test_projective_chars_have_verma_and_coverma_filtrations(case):
    # the report's costandard matrix against W(lam) built from the dual
    # components (coverma_char), not from the profile's shifted Vermas
    profile, table, r = _report_case(case)
    for mu in r.weights:
        via_verma = GradedChar.zero()
        for lam, c in r.projective_verma[mu].items():
            via_verma = via_verma + verma_char(profile, lam).scale(c)
        via_coverma = GradedChar.zero()
        for lam, c in r.projective_coverma[mu].items():
            via_coverma = via_coverma + coverma_char(profile, lam).scale(c)
        assert via_verma == r.projective_chars[mu]
        assert via_coverma == r.projective_chars[mu]


def test_cartan_matrix(taft3_report):
    r = taft3_report
    ev = {
        lam: {mu: c.eval_one() for mu, c in r.verma_simple[lam].items()}
        for lam in r.weights
    }
    for mu in r.weights:
        assert r.cartan[mu][mu].eval_one() >= 1
        for nu in r.weights:
            c = r.cartan[mu].get(nu, LaurentInt.zero())
            # graded entries are bar-symmetric, hence symmetric at t=1
            assert c == r.cartan[nu].get(mu, LaurentInt.zero()).bar()
            dtd = sum(ev[lam].get(mu, 0) * ev[lam].get(nu, 0) for lam in r.weights)
            assert c.eval_one() == dtd


@pytest.mark.parametrize("n", range(2, 8))
def test_cartan_rule_matches_decomposed_projectives(n):
    # the report's C = D-bar^T D against the span decomposition of each
    # assembled projective character into simples
    profile, table = build_profile_and_table(TaftParams(n))
    report = bgg_matrices(profile, table)
    for mu in report.weights:
        assert report.cartan[mu] == decompose_into_simples(
            report.projective_chars[mu], table
        )


@pytest.mark.parametrize("case", REPORT_CASES)
def test_maximal_shift_summand(case):
    # the projective of mu has its largest Verma shift level + n_top at
    # the single Verma of lambda_ov (x) bottom, read through the fusion
    profile, table, report = _report_case(case)
    system = profile.system
    for mu in system.weights:
        bottom, level = table.lowest[mu]
        row = report.projective_verma[mu]
        top_shift = max(c.max_degree() for c in row.values())
        assert top_shift == level + profile.n_top
        tops = [
            lam
            for lam, c in row.items()
            if c.max_degree() == top_shift
        ]
        (expected,) = system.fusion(profile.lambda_ov, bottom)
        assert tops == [expected]


def test_ind_decomposition(taft3, taft3_report):
    params, profile, table = taft3
    mu = params.weight_of(0, 0)
    out = ind_into_projectives(profile, table, mu, report=taft3_report)
    assert out == {params.weight_of(0, 0): ONE, params.weight_of(2, 2): T}
    total = sum(
        c.eval_one() * taft3_report.dim_projective(lam, profile.dim_b)
        for lam, c in out.items()
    )
    assert total == 9 == ind_char(profile, mu).dim(profile.system)


def _any_simple_table(n, kind):
    profile, table = _taft(n)
    system = profile.system
    if kind == "verma":
        table = SimpleTable(system, profile.vermas)
    elif kind == "simple":
        table = SimpleTable(system, {w: GradedChar.of(w) for w in system.weights})
    return profile, table


@pytest.mark.parametrize("kind", ["taft", "verma", "simple"])
@pytest.mark.parametrize("n", range(2, 8))
def test_ind_identity_holds_for_any_simple_table(n, kind):
    # the expansion of Ind(mu) over projectives equals W(unit) M(mu) for
    # every valid simple table, not only the true one: with L := M the
    # decomposition matrix is the identity, and with every simple cut to
    # its degree-0 weight it is the weight series of the Vermas
    profile, table = _any_simple_table(n, kind)
    report = bgg_matrices(profile, table)
    if kind == "verma":
        assert all(f == SIMPLE_PROJECTIVE for f in report.flags.values())
    for mu in profile.system.weights:
        ind_into_projectives(profile, table, mu, report=report)


def test_tensor_of_projectives(taft3, taft3_report):
    params, profile, _ = taft3
    mu = params.weight_of(2, 2)
    out = tensor_projectives(taft3_report, profile, mu, mu)
    assert out == {params.weight_of(0, 0): LaurentInt.monomial(1, -2)}


def test_tensor_degenerate_profile(c3_system):
    profile = NicholsProfile(c3_system, [KElement.of(c3_system.unit)])
    table = SimpleTable(c3_system, {w: GradedChar.of(w) for w in c3_system.weights})
    report = bgg_matrices(profile, table)
    assert all(f == SIMPLE_PROJECTIVE for f in report.flags.values())
    for mu in c3_system.weights:
        for nu in c3_system.weights:
            out = tensor_projectives(report, profile, mu, nu)
            (prod,) = c3_system.fusion(mu, nu)
            assert out == {prod: ONE}


def test_bgg_requires_full_table(taft3):
    # a table without every weight cannot be built, so no report ever
    # sees one
    params, profile, table = taft3
    system = profile.system
    kept = params.weight_of(0, 0)
    missing = ", ".join(w.label for w in system.weights if w != kept)
    with pytest.raises(InputError, match=f"missing entries for {missing}$"):
        SimpleTable(system, {kept: table[kept]})


def fk3_data():
    system = WeightSystem(FiniteGroup.from_generators(3, [(1, 0, 2), (1, 2, 0)]))
    obj = json.loads((DATA / "fk3_ml.json").read_text())
    return system, MLMatrixData.from_json(obj, system)


def test_fk3_projective_rows():
    system, ml = fk3_data()
    report = ungraded_bgg(ml, system)
    assert report.n_top == 4
    by = system.by_label

    def row(label):
        return {
            w.label: c.eval_one() for w, c in report.projective_verma[by[label]].items()
        }

    assert row("g1r1") == {"g1r1": 2, "g0r0": 1, "g2r0": 1, "g0r2": 1}
    assert row("g0r0") == {"g0r0": 2, "g1r1": 2}
    assert row("g0r2") == {"g0r2": 1, "g1r1": 1, "g2r0": 1}
    simple = {w.label for w, f in report.flags.items() if f == SIMPLE_PROJECTIVE}
    assert simple == {"g0r1", "g1r0", "g2r1", "g2r2"}
    assert report.projective_coverma is None
    assert report.projective_chars is None


def test_fk3_cartan_symmetry():
    system, ml = fk3_data()
    report = ungraded_bgg(ml, system)
    for mu in report.weights:
        for nu in report.weights:
            assert report.cartan[mu].get(nu, LaurentInt.zero()) == report.cartan[
                nu
            ].get(mu, LaurentInt.zero())
    # ungraded reciprocity: projective rows are the transposed Verma rows,
    # and C = D^T D
    zero = LaurentInt.zero()
    for mu in report.weights:
        for lam in report.weights:
            p = report.projective_verma[mu].get(lam, zero)
            assert p == report.verma_simple[lam].get(mu, zero)
        for nu in report.weights:
            dtd = zero
            for row in report.verma_simple.values():
                dtd = dtd + row.get(mu, zero) * row.get(nu, zero)
            assert report.cartan[mu].get(nu, zero) == dtd


def test_ml_validation():
    system, ml = fk3_data()
    by = system.by_label
    with pytest.raises(InputError, match="negative"):
        MLMatrixData(system, {by["g0r0"]: KElement({by["g0r0"]: 1, by["g0r1"]: -1})}, 12, 4)
    with pytest.raises(InputError, match="own weight"):
        MLMatrixData(system, {by["g0r0"]: KElement({by["g0r1"]: 1})}, 12, 4)
    with pytest.raises(InputError, match="missing rows"):
        MLMatrixData(system, {by["g0r0"]: KElement({by["g0r0"]: 1})}, 12, 4)
    # a row naming a weight without a row fails before the completeness check
    rows = dict(ml.rows)
    del rows[by["g1r1"]]
    with pytest.raises(InputError, match="row of g0r0 mentions g1r1"):
        MLMatrixData(system, rows, 12, 4)


def test_ml_dimension_certificate():
    system, _ = fk3_data()
    by = system.by_label
    # diagonal rows pin every simple dimension; a row scaled by 5 cannot
    # produce an integral solution
    rows = {w: KElement.of(w) for w in system.weights}
    rows[by["g0r0"]] = KElement({by["g0r0"]: 5})
    with pytest.raises(InconsistencyError, match="simple dimensions"):
        MLMatrixData(system, rows, 12, 4)
    # the certificate runs before the completeness check
    del rows[by["g2r2"]]
    with pytest.raises(InconsistencyError, match="simple dimensions"):
        MLMatrixData(system, rows, 12, 4)


def test_ml_dimension_certificate_on_singular_rows():
    system, ml = fk3_data()
    by = system.by_label
    # the shipped matrix is singular (the rows of g0r2 and g2r0 are equal),
    # yet it still pins dim L(g0r1) = 12 / 5 once that row is scaled by 5
    rows = dict(ml.rows)
    rows[by["g0r1"]] = KElement({by["g0r1"]: 5})
    with pytest.raises(InconsistencyError, match=r"dim L\(g0r1\) = 12/5"):
        MLMatrixData(system, rows, 12, 4)
    # dim L(g0r1) + dim L(g0r2) cannot be both 12 and 24
    rows = dict(ml.rows)
    rows[by["g0r1"]] = rows[by["g0r2"]] = KElement({by["g0r1"]: 1, by["g0r2"]: 1})
    with pytest.raises(InconsistencyError, match="rows are inconsistent"):
        MLMatrixData(system, rows, 12, 4)


def test_ml_dimension_certificate_ignores_free_dimensions():
    system, _ = fk3_data()
    by = system.by_label
    # equal rows 2 L(g0r0) + L(g0r1) leave dim L(g0r1) free, so the
    # value 1/2 they give dim L(g0r0) + dim L(g0r1) / 2 certifies nothing
    rows = {w: KElement.of(w) for w in system.weights}
    rows[by["g0r0"]] = rows[by["g0r1"]] = KElement({by["g0r0"]: 2, by["g0r1"]: 1})
    assert MLMatrixData(system, rows, 1, 4).rows == rows


def test_ungraded_route_matches_graded_at_t1():
    # at_one re-derives the report from D(1); the ungraded route derives it
    # from the same rows given as constants, so the two must agree exactly
    for n in range(2, 7):
        profile, table = build_profile_and_table(TaftParams(n))
        system = profile.system
        report = bgg_matrices(profile, table)
        flat = report.at_one()
        rows = {
            lam: KElement({mu: c.eval_one() for mu, c in flat.verma_simple[lam].items()})
            for lam in system.weights
        }
        ml = MLMatrixData(system, rows, profile.dim_b, profile.n_top)
        ungraded = ungraded_bgg(ml, system)
        assert flat.projective_verma == ungraded.projective_verma, n
        assert flat.cartan == ungraded.cartan, n
        assert flat.flags == ungraded.flags == report.flags, n
        # re-deriving from D(1) agrees with evaluating the graded entries
        for mu, row in report.projective_verma.items():
            assert {lam: c.eval_one() for lam, c in row.items()} == {
                lam: c.eval_one() for lam, c in ungraded.projective_verma[mu].items()
            }, n
        assert all(
            c.terms.keys() <= {0} for row in flat.cartan.values() for c in row.values()
        ), n
