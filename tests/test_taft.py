from collections import Counter

import pytest

from doublechar import cli, taft
from doublechar.cyclotomic import CYC_ONE, CYC_ZERO, Cyclotomic, nullspace, zeta
from doublechar.errors import InputError, OracleError
from doublechar.graded import KElement
from doublechar.taft import (
    TaftParams,
    VermaMatrices,
    _diag,
    _mat_mul,
    _mat_pow,
    _sparse,
    build_profile_and_table,
    head_length,
    raising_coeffs,
    simple_char,
)
from doublechar.weights import WeightSystem


def test_params_validation():
    with pytest.raises(InputError):
        TaftParams(1)
    with pytest.raises(InputError):
        TaftParams(0)


def test_weight_label_round_trip(taft3):
    params, _, _ = taft3
    for r in range(3):
        for s in range(3):
            w = params.weight_of(r, s)
            assert params.rs_of(w) == (r, s)
    aliases = params.aliases()
    assert aliases[params.weight_of(2, 1).label] == "2,1"
    assert len(set(aliases.values())) == 9


@pytest.mark.parametrize("n", range(2, 13))
def test_each_row_takes_its_exponent_at_the_generator(n):
    params = TaftParams(n)
    table = params.system.tables[0]
    gen_class = params.system.conj.class_of[params.system.group.index[tuple(range(1, n)) + (0,)]]
    for s in range(n):
        assert table.values[params.exp_to_row[s]][gen_class] == zeta(n, s)


def q_integer(q, k):
    """1 + q + ... + q^(k-1): the closed form that raising_coeffs
    builds one term at a time."""
    acc = CYC_ZERO
    for i in range(k):
        acc = acc + q ** i
    return acc


def test_q_integer():
    q = zeta(4)
    assert q_integer(q, 0) == 0
    assert q_integer(q, 1) == 1
    assert q_integer(q, 2) == 1 + q
    assert q_integer(q, 4) == (1 + q) * (1 + q**2)


def test_lowering_coefficient_zeros(taft3):
    params, _, _ = taft3
    cs = raising_coeffs(params, 2)
    assert not cs[0].is_zero()
    assert cs[1].is_zero()
    assert head_length(params, 0, 2) == 2
    # weights with r + s = 1 - n have no zero coefficient: full head
    assert head_length(params, 0, 1) == 3
    assert head_length(params, 2, 2) == 3


def test_simple_char_shape(taft3):
    params, _, _ = taft3
    ch = simple_char(params, 0, 2)
    assert ch.degrees() == [-1, 0]
    assert ch.layer(0) == KElement.of(params.weight_of(0, 2))
    assert ch.layer(-1) == KElement.of(params.weight_of(1, 0))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_head_lengths_cover_every_value_once(n):
    params = TaftParams(n)
    total = 0
    for r in range(n):
        lengths = sorted(head_length(params, r, s) for s in range(n))
        assert lengths == list(range(1, n + 1))
        total += sum(lengths)
    assert total == n * n * (n + 1) // 2


def _first_vanishing_rung(params, r, s):
    """Head length by scanning the chain coefficients for the first zero."""
    for k, c in enumerate(raising_coeffs(params, (r + s) % params.n), start=1):
        if c.is_zero():
            return k
    return params.n


@pytest.mark.parametrize("n", range(2, 13))
def test_head_length_is_the_first_vanishing_rung(n):
    params = TaftParams(n)
    for r, s in params.all_rs():
        assert head_length(params, r, s) == _first_vanishing_rung(params, r, s)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_simple_dimension_rule(n):
    # the simple with parameters (r, 1-(r+l)) has dimension l
    params = TaftParams(n)
    for r in range(n):
        for l in range(1, n + 1):
            s = (1 - (r + l)) % n
            assert head_length(params, r, s) == l


def test_composition_series_frozen(taft3):
    params, _, _ = taft3
    series = VermaMatrices(params).series
    assert len(series) == 9
    assert series[0, 2] == (((0, 2), 0), ((2, 1), -2))
    assert series[2, 2] == (((2, 2), 0),)
    assert series[0, 0] == (((0, 0), 0), ((1, 1), -1))


def test_explicit_matrices_verification(taft3):
    # the module of (0, 2): group-likes G_0 and G_2, ladder E_2
    params, _, _ = taft3
    vm = VermaMatrices(params)
    q = params.q
    assert len(vm.group_likes) == len(vm.raising) == 3
    for k in range(3):
        assert vm.group_likes[0][k][k] == q**k
        assert vm.group_likes[2][k][k] == q ** ((2 + k) % 3)
        assert vm.lowering[(k + 1) % 3].get(k, CYC_ZERO) == int(k < 2)
    assert [shift for _, shift in vm.series[0, 2]] == [0, -2]
    assert vm.raising[2][1].get(2, CYC_ZERO).is_zero()
    assert not vm.raising[2][0][1].is_zero()


def test_matrix_relations_hold_for_all_weights():
    for n in (2, 3):
        params = TaftParams(n)
        vm = VermaMatrices(params)
        for r, s in params.all_rs():
            series = vm.series[r, s]
            assert series[0] == ((r, s), 0)
            shifts = [shift for _, shift in series]
            assert shifts == sorted(shifts, reverse=True)
            assert sum(head_length(params, fr, fs) for (fr, fs), _ in series) == n


def test_profile_and_table_validate_up_to_eight():
    for n in range(2, 9):
        params = TaftParams(n)
        profile, table = build_profile_and_table(params)
        assert profile.n_top == n - 1
        assert profile.dim_b == n
        assert len(table.weights()) == n * n
        for j, comp in enumerate(profile.components):
            assert comp == KElement.of(params.weight_of(j, j))


def test_oracle_crosschecks_series_against_characters(taft3):
    params, profile, table = taft3
    # the table rows really are the simple characters the oracle found
    for r, s in params.all_rs():
        lam = params.weight_of(r, s)
        assert table[lam] == simple_char(params, r, s)


def test_lowering_coeffs_match_the_closed_form():
    for n in (2, 5, 12):
        params = TaftParams(n)
        q = params.q
        assert params.powers == tuple(q**k for k in range(n))
        for c in range(n):
            want = [q_integer(q, k) * (1 - q ** ((c + k - 1) % n)) for k in range(1, n)]
            assert raising_coeffs(params, c) == want


# ---- sparse matrix helpers ----


def _dense(m):
    n = len(m)
    return [[m[i].get(j, CYC_ZERO) for j in range(n)] for i in range(n)]


def _dense_mul(a, b):
    n = len(a)
    return [
        [sum((a[i][k] * b[k][j] for k in range(n)), CYC_ZERO) for j in range(n)]
        for i in range(n)
    ]


def _dense_pow(m, e):
    n = len(m)
    out = [[CYC_ONE if i == j else CYC_ZERO for j in range(n)] for i in range(n)]
    for _ in range(e):
        out = _dense_mul(out, m)
    return out


def _from_rows(rows):
    return _sparse(
        len(rows),
        ((i, j, x * CYC_ONE) for i, row in enumerate(rows) for j, x in enumerate(row)),
    )


def _small_dense():
    w = zeta(3)
    return _from_rows([[2, w, 1 + w], [w * w, 0, -1], [1, 3 * w, w - 1]])


def test_mat_pow_by_squaring_matches_repeated_products():
    vm = VermaMatrices(TaftParams(5))
    cases = [vm.raising[4], vm.lowering, _small_dense()]
    for m in cases:
        n = len(m)
        naive = _diag([CYC_ONE] * n)
        for e in range(n + 2):
            assert _dense(_mat_pow(m, e)) == _dense(naive) == _dense_pow(_dense(m), e)
            naive = _mat_mul(naive, m)


def _count_inverses(monkeypatch):
    calls = []
    original = Cyclotomic.inverse

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Cyclotomic, "inverse", counted)
    return calls


def test_nullspace_of_a_dense_matrix_takes_the_inverse_path(monkeypatch):
    w = zeta(3)
    # the second row is w times the first, so the kernel is one line,
    # spanned by (w, w^2, 1) once normalised at its free coordinate
    rows = [[2, 2 * w, 2 * w * w], [w, w * w, 1], [1, 1, 1]]
    calls = _count_inverses(monkeypatch)
    kernel = nullspace(_from_rows(rows), 3)
    assert calls
    assert kernel == [{0: w, 1: w * w, 2: 1}]


def test_nullspace_of_a_ladder_needs_no_inverse(monkeypatch):
    params = TaftParams(6)
    vm = VermaMatrices(params)
    calls = _count_inverses(monkeypatch)
    kernel = nullspace(vm.raising[2], 6)
    assert calls == []
    supports = sorted(k for vec in kernel for k in vec)
    assert supports == [0, head_length(params, 0, 2)]


def _zero_rung(monkeypatch, target, rung):
    """Makes raising_coeffs return E_target with its given rung zeroed."""
    original = raising_coeffs

    def corrupted(p, c):
        coeffs = original(p, c)
        if c == target:
            coeffs[rung - 1] = CYC_ZERO
        return coeffs

    monkeypatch.setattr(taft, "raising_coeffs", corrupted)


@pytest.mark.parametrize("n", [3, 4])
def test_corrupted_coefficients_raise_oracle_error(capsys, monkeypatch, n):
    # zero one more rung of a single ladder E_c; the matrices then read a
    # series with one more segment than the engine's, and taft exits 4
    params = TaftParams(n)
    corrupted_rungs = 0
    for c in range(n):
        for rung in range(1, n):
            if raising_coeffs(params, c)[rung - 1].is_zero():
                continue
            with monkeypatch.context() as patch:
                _zero_rung(patch, c, rung)
                assert cli.main(["taft", str(n)]) == 4
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "engine decomposition of the Verma of" in captured.err
            corrupted_rungs += 1
    assert corrupted_rungs == n * (n - 1) - (n - 1)
    assert cli.main(["taft", str(n)]) == 0


def test_oracle_failure_names_weight_and_both_sides(capsys, monkeypatch):
    # an extra zero rung of E_0 cuts the chain of (0,0) once more than
    # the engine's head length does
    _zero_rung(monkeypatch, 0, 2)
    assert cli.main(["taft", "3"]) == 4
    assert capsys.readouterr().err == (
        "oracle verification failed: engine decomposition of the Verma of (0,0) "
        "disagrees with the matrix composition series: engine L(0,0) + t^-1 L(1,1), "
        "matrices L(0,0) + t^-1 L(1,1) + t^-2 L(2,2)\n"
    )


@pytest.mark.parametrize("n", range(2, 9))
def test_series_are_read_off_the_matrices_alone(monkeypatch, n):
    # the closed form is the engine's side: the oracle never consults it
    want = VermaMatrices(TaftParams(n)).series

    def refuse(*args):
        raise AssertionError("head_length called by the matrix oracle")

    monkeypatch.setattr(taft, "head_length", refuse)
    assert VermaMatrices(TaftParams(n)).series == want


def test_kernel_vector_with_two_supports_names_the_ladder(monkeypatch):
    # a kernel that is not spanned by basis vectors is refused before any
    # series is read; E_0 at n = 3 keeps its tail from e_1 only
    monkeypatch.setattr(taft, "nullspace", lambda m, n: [{0: CYC_ONE, 1: CYC_ONE}])
    with pytest.raises(OracleError) as info:
        VermaMatrices(TaftParams(3))
    assert str(info.value) == (
        "E_0: supports of the kernel of E = [0] and each cut whose tail E keeps "
        "fails: [[0, 1]] against [[0], [1]]"
    )


def test_failed_weight_check_names_the_weight(monkeypatch):
    # the tail of F is reported as not kept; the operator identities do
    # not look at F's tails, so the first weight with a singular vector,
    # (0, 0) with head length 1, is the one that fails
    original = taft._tail_invariant

    def refuse_f(mat, cut):
        # F alone has an entry at row 1, column 0
        return 0 not in mat[1] and original(mat, cut)

    monkeypatch.setattr(taft, "_tail_invariant", refuse_f)
    with pytest.raises(OracleError) as info:
        VermaMatrices(TaftParams(3))
    assert str(info.value) == (
        "Verma of (0,0): F keeps the span from e_1 fails: False against True"
    )


def test_shared_pair_failure_names_the_first_weight_that_needs_it(monkeypatch):
    # G_2 is reported as not keeping any tail; at n = 3 the first weight,
    # in (r, s) order, that acts by G_2 and has a singular index is
    # (0, 2), cut at e_2, so it is the one named, after one scan of G_2
    params = TaftParams(3)
    original = taft._tail_invariant
    g2 = []

    def refuse_g2(mat, cut):
        # G_x alone has a diagonal entry in row 0, namely q^x
        if mat[0].get(0) == params.powers[2]:
            g2.append(cut)
            return False
        return original(mat, cut)

    monkeypatch.setattr(taft, "_tail_invariant", refuse_g2)
    with pytest.raises(OracleError) as info:
        VermaMatrices(params)
    assert str(info.value) == (
        "Verma of (0,2): G_2 keeps the span from e_2 fails: False against True"
    )
    assert g2 == [2]


def test_taft_products_compose_exponent_vectors(monkeypatch):
    # every weight of a Taft system is invertible, so each of the 1,662
    # distinct products that build the n = 12 profile and table adds two
    # exponent vectors: no row of cyclotomic values is multiplied and no
    # pair character is projected
    calls = Counter()

    def counted(name):
        real = getattr(WeightSystem, name)

        def wrapper(self, *args):
            calls[name] += 1
            return real(self, *args)

        return wrapper

    for name in ("_times_invertibles", "_multiplicities"):
        monkeypatch.setattr(WeightSystem, name, counted(name))
    build_profile_and_table(TaftParams(12))
    assert calls == {"_times_invertibles": 1662}


def test_taft_arithmetic_stays_at_one_order(monkeypatch):
    # a sum, product or comparison of two orders, neither of them rational,
    # raises, so the parameters, the profile and table build and the matrix
    # oracle all run at order 12; embed is called only by the Dixon lift and
    # once for each value of the one centralizer table, Z12 itself
    calls = []
    embed = Cyclotomic.embed

    def counted(x, order):
        calls.append(order)
        return embed(x, order)

    monkeypatch.setattr(Cyclotomic, "embed", counted)
    params = TaftParams(12)
    assert calls == [12] * 144  # the Dixon lift of each value
    calls.clear()
    build_profile_and_table(params)
    assert calls == [12] * 144  # the weight system's copy of the table
    calls.clear()
    VermaMatrices(params)
    assert calls == []


def test_shared_operators_are_built_and_checked_once(monkeypatch):
    # 2n + 1 distinct operators serve the n^2 modules: one ladder E_c
    # per c = (r + s) mod n, whose coefficients and kernel are computed
    # once each, and E_c^n plus F^n as the only powers; 496 products are
    # the work of checking each identity once, and the 275 tail scans are
    # 132 cuts of the kernels' check plus 143 distinct (operator, cut)
    # pairs, 132 of a group-like and 11 of F, that the weights share
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    names = ("raising_coeffs", "nullspace", "_mat_pow", "_mat_mul", "_tail_invariant")
    for name in names:
        monkeypatch.setattr(taft, name, counted(name, getattr(taft, name)))
    params = TaftParams(12)
    monkeypatch.setattr(Cyclotomic, "embed", counted("embed", Cyclotomic.embed))
    VermaMatrices(params)
    assert calls == {
        "raising_coeffs": 12,
        "nullspace": 12,
        "_mat_pow": 13,
        "_mat_mul": 496,
        "_tail_invariant": 275,
    }
