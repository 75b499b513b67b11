"""End-to-end acceptance checks.

Each test prints one criterion NN: PASS/FAIL line through the
acceptance_line fixture; the collected lines are echoed again in a
terminal summary section after the run.
"""

import json
import pathlib
import time
from contextlib import contextmanager

from doublechar import (
    FiniteGroup,
    MLMatrixData,
    NON_SIMPLE,
    SIMPLE_PROJECTIVE,
    TaftParams,
    VermaMatrices,
    WeightSystem,
    bgg_matrices,
    build_profile_and_table,
    decompose_into_simples,
    head_length,
    ind_char,
    ind_into_projectives,
    tensor_projectives,
    ungraded_bgg,
    verify_duality_identities,
    verma_char,
)
from doublechar import cli
from doublechar.jsonio import load_aliases_file
from doublechar.laurent import LaurentInt

S3_GENS = [(1, 0, 2), (1, 2, 0)]
DATA = pathlib.Path(__file__).resolve().parent.parent / "data"

FK3_LINES = [
    "ch P(σ,−) = 2 ch M(σ,−) + ch M(e,+) + ch M(τ,0) + ch M(e,ρ)",
    "ch P(e,+) = 2 ch M(e,+) + 2 ch M(σ,−)",
    "ch P(e,ρ) = ch M(τ,0) + ch M(e,ρ) + ch M(σ,−)",
]


@contextmanager
def criterion(put, num, desc):
    try:
        yield
    except BaseException:
        put(f"criterion {num:02d}: FAIL  {desc}")
        raise
    put(f"criterion {num:02d}: PASS  {desc}")


def cyclic_system(n):
    return WeightSystem(FiniteGroup.from_generators(n, [tuple((i + 1) % n for i in range(n))]))


def taft_report(n):
    params = TaftParams(n)
    profile, table = build_profile_and_table(params)
    return params, profile, table, bgg_matrices(profile, table)


def test_criterion_01_s3_weight_census(acceptance_line):
    desc = "S3 double: 8 weights, dims (1,1,2,3,3,2,2,2), squares sum to 36"
    with criterion(acceptance_line, 1, desc):
        t0 = time.monotonic()
        system = WeightSystem(FiniteGroup.from_generators(3, S3_GENS))
        rows = system.census()
        assert len(rows) == 8
        assert [r["dim"] for r in rows] == [1, 1, 2, 3, 3, 2, 2, 2]
        assert sum(r["dim"] ** 2 for r in rows) == 36
        aliases = load_aliases_file(str(DATA / "fk3_aliases.json"), system)
        assert sorted(aliases) == sorted(r["label"] for r in rows)
        assert set(aliases.values()) == {
            "e,+", "e,−", "e,ρ", "σ,+", "σ,−", "τ,0", "τ,1", "τ,2",
        }
        assert time.monotonic() - t0 < 1.0


def test_criterion_02_taft_dimensions(acceptance_line):
    desc = "Taft n=2..5: every Verma has dimension n, every simple dimension l"
    with criterion(acceptance_line, 2, desc):
        for n in range(2, 6):
            t0 = time.monotonic()
            params = TaftParams(n)
            profile, table = build_profile_and_table(params)
            system = profile.system
            assert len(system.weights) == n * n
            for w in system.weights:
                assert verma_char(profile, w).dim(system) == n
            for r in range(1, n + 1):
                for l in range(1, n + 1):
                    lam = params.weight_of(r, 1 - (r + l))
                    assert head_length(params, *params.rs_of(lam)) == l
                    assert table[lam].dim(system) == l
            assert time.monotonic() - t0 < 5.0


def test_criterion_03_simple_projective_classification(acceptance_line):
    desc = "Taft n=2..5: exactly the weights (r, 1-(r+n)) are simple projective"
    with criterion(acceptance_line, 3, desc):
        for n in range(2, 6):
            params, profile, table, report = taft_report(n)
            expect = {params.weight_of(r, 1 - (r + n)) for r in range(n)}
            flagged = {w for w, f in report.flags.items() if f == SIMPLE_PROJECTIVE}
            assert flagged == expect
            rest = set(profile.system.weights) - expect
            assert all(report.flags[w] == NON_SIMPLE for w in rest)


def test_criterion_04_projective_filtration_shape(acceptance_line):
    desc = "Taft n=2..5: non-simple P(r,s) = M(r,s) + t^(n-l) M(r+l, 1-r)"
    with criterion(acceptance_line, 4, desc):
        for n in range(2, 6):
            params, profile, table, report = taft_report(n)
            for w in profile.system.weights:
                r, s = params.rs_of(w)
                l = head_length(params, r, s)
                row = report.projective_verma[w]
                if l == n:
                    assert row == {w: LaurentInt.one()}
                    continue
                partner = params.weight_of(r + l, 1 - r)
                assert row == {
                    w: LaurentInt.one(),
                    partner: LaurentInt.monomial(1, n - l),
                }
                assert {x: c.eval_one() for x, c in row.items()} == {
                    w: 1,
                    partner: 1,
                }


def test_criterion_05_duality_identity_suite(acceptance_line):
    desc = "Taft n=2..6: the four duality identities hold at every weight"
    with criterion(acceptance_line, 5, desc):
        t0 = time.monotonic()
        for n in range(2, 7):
            profile, _ = build_profile_and_table(TaftParams(n))
            for lam in profile.system.weights:
                flags = verify_duality_identities(profile, lam)
                assert all(flags.values()), (n, lam, flags)
        assert time.monotonic() - t0 < 30.0


def test_criterion_06_graded_reciprocity(acceptance_line):
    desc = "Taft n=2..5: projective rows are bar transposes of Verma rows"
    with criterion(acceptance_line, 6, desc):
        for n in range(2, 6):
            _, _, _, report = taft_report(n)
            zero = LaurentInt.zero()
            for mu in report.weights:
                for lam in report.weights:
                    p = report.projective_verma[mu].get(lam, zero)
                    m = report.verma_simple[lam].get(mu, zero)
                    assert p == m.bar()
                    assert p.eval_one() == m.eval_one()
                    assert not p or p.min_degree() >= 0
                assert report.projective_verma[mu][mu].terms.get(0) == 1


def test_criterion_07_fk3_reproduction(acceptance_line):
    desc = "shipped S3 fixture reproduces the three projective filtration lines"
    with criterion(acceptance_line, 7, desc):
        system = WeightSystem(FiniteGroup.from_generators(3, S3_GENS))
        obj = json.loads((DATA / "fk3_ml.json").read_text())
        report = ungraded_bgg(MLMatrixData.from_json(obj, system), system)
        aliases = load_aliases_file(str(DATA / "fk3_aliases.json"), system)
        names = {w.label: aliases.get(w.label, w.label) for w in system.weights}
        rendered = cli._render_report(report, names).splitlines()
        for line in FK3_LINES:
            assert line in rendered


def test_criterion_08_induction_decomposition(acceptance_line):
    desc = "Taft n=3: every induced module expands into projectives, dim 9"
    with criterion(acceptance_line, 8, desc):
        params, profile, table, report = taft_report(3)
        system = profile.system
        for mu in system.weights:
            # the helper itself re-checks the expansion against ind_char
            out = ind_into_projectives(profile, table, mu, report)
            assert ind_char(profile, mu).dim(system) == 9
            total = sum(
                c.eval_one() * report.dim_projective(lam, profile.dim_b)
                for lam, c in out.items()
            )
            assert total == 9
        spot = ind_into_projectives(
            profile, table, params.weight_of(0, 0), report
        )
        assert {(params.rs_of(w), str(c)) for w, c in spot.items()} == {
            ((0, 0), "1"),
            ((2, 2), "t"),
        }


def test_criterion_09_tensor_of_projectives(acceptance_line):
    desc = "Taft n=3: all 81 projective tensor pairs expand into induced modules"
    with criterion(acceptance_line, 9, desc):
        params, profile, table, report = taft_report(3)
        ws = profile.system.weights
        pairs = 0
        for mu in ws:
            for nu in ws:
                # dimension agreement is checked inside the expansion
                out = tensor_projectives(report, profile, mu, nu)
                assert out
                pairs += 1
        assert pairs == 81
        w22 = params.weight_of(2, 2)
        spot = tensor_projectives(report, profile, w22, w22)
        assert {(params.rs_of(w), str(c)) for w, c in spot.items()} == {
            ((0, 0), "t^-2"),
        }


def test_criterion_10_fusion_ring_properties(acceptance_line):
    desc = "fusion over S3 and C2..C6 is a commutative based ring with duals"
    with criterion(acceptance_line, 10, desc):
        t0 = time.monotonic()
        systems = [WeightSystem(FiniteGroup.from_generators(3, S3_GENS))]
        systems.extend(cyclic_system(n) for n in range(2, 7))
        for system in systems:
            ws = system.weights
            unit = system.by_label["g0r0"]
            table = {}
            for a in ws:
                for b in ws:
                    prod = system.fusion(a, b)
                    assert all(
                        isinstance(m, int) and m > 0 for m in prod.values()
                    )
                    dims = sum(m * system.dim(w) for w, m in prod.items())
                    assert dims == system.dim(a) * system.dim(b)
                    table[(a, b)] = prod
            for a in ws:
                assert table[(unit, a)] == {a: 1}
                assert system.dual(system.dual(a)) == a
                assert table[(a, system.dual(a))].get(unit) == 1
                for b in ws:
                    assert table[(a, b)] == table[(b, a)]

            def right(lhs, c):
                out = {}
                for w, m in lhs.items():
                    for x, k in table[(w, c)].items():
                        out[x] = out.get(x, 0) + m * k
                return out

            def left(a, rhs):
                out = {}
                for w, m in rhs.items():
                    for x, k in table[(a, w)].items():
                        out[x] = out.get(x, 0) + m * k
                return out

            for a in ws:
                for b in ws:
                    ab = table[(a, b)]
                    for c in ws:
                        assert right(ab, c) == left(a, table[(b, c)])
        assert time.monotonic() - t0 < 60.0


def test_criterion_11_oracle_engine_equivalence(acceptance_line):
    desc = "Taft n=2..5: explicit matrix series match the span decomposition"
    with criterion(acceptance_line, 11, desc):
        for n in range(2, 6):
            params = TaftParams(n)
            profile, table = build_profile_and_table(params)
            vm = VermaMatrices(params)
            for w in profile.system.weights:
                r, s = params.rs_of(w)
                from_matrices = {
                    (rs, shift): 1 for rs, shift in vm.series[r, s]
                }
                dec = decompose_into_simples(verma_char(profile, w), table)
                from_span = {
                    (params.rs_of(lam), d): m
                    for lam, coeff in dec.items()
                    for d, m in coeff.terms.items()
                }
                assert from_matrices == from_span
