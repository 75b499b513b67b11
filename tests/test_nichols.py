import functools
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doublechar.errors import InconsistencyError, InputError
from doublechar.graded import GradedChar, KElement, gc_dual
from doublechar.groups import FiniteGroup
from doublechar.jsonio import load_group_file
from doublechar.nichols import (
    NicholsProfile,
    SimpleTable,
    coverma_char,
    ind_char,
    verify_duality_identities,
    verma_char,
)
from doublechar.taft import TaftParams, build_profile_and_table
from doublechar.weights import WeightSystem

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"


def unit_k(system):
    return KElement.of(system.unit)


def test_profile_validation_messages(c3_system, s3_system):
    unit = unit_k(c3_system)
    w = c3_system.weights
    with pytest.raises(InputError, match="nonempty"):
        NicholsProfile(c3_system, [])
    with pytest.raises(InputError, match="bottom-is-unit"):
        NicholsProfile(c3_system, [KElement.of(w[4])])
    with pytest.raises(InputError, match="nonnegative"):
        NicholsProfile(c3_system, [unit, KElement({w[4]: -1})])
    with pytest.raises(InputError, match="no-gaps"):
        NicholsProfile(c3_system, [unit, KElement.zero(), KElement.of(w[4])])
    with pytest.raises(InputError, match="one-dimensional-top"):
        NicholsProfile(c3_system, [unit, KElement.of(w[1]) + KElement.of(w[2])])
    with pytest.raises(InputError, match="one-dimensional-top"):
        big = s3_system.by_label["g0r2"]
        NicholsProfile(s3_system, [unit_k(s3_system), KElement.of(big)])
    with pytest.raises(
        InconsistencyError,
        match=r"'self-dual' violated: the dual of component 1 is g0r0, "
        r"but component 1 times g2r2 is g2r2$",
    ):
        NicholsProfile(c3_system, [unit, unit, KElement.of(c3_system.by_label["g1r1"])])


def test_taft_profile_attributes(taft3):
    params, profile, _ = taft3
    assert profile.n_top == 2
    assert profile.dim_b == 3
    assert profile.lambda_v == params.weight_of(2, 2)
    assert profile.lambda_ov == params.weight_of(1, 1)
    system = profile.system
    assert system.fusion(profile.lambda_v, profile.lambda_ov) == {system.unit: 1}
    assert profile.twist_v[system.unit] == profile.lambda_v


def test_degenerate_profile(c3_system):
    profile = NicholsProfile(c3_system, [unit_k(c3_system)])
    assert profile.n_top == 0
    assert profile.dim_b == 1
    assert profile.lambda_v == c3_system.unit
    for lam in c3_system.weights:
        assert verma_char(profile, lam) == GradedChar.of(lam)
        assert coverma_char(profile, lam) == GradedChar.of(lam)
        assert ind_char(profile, lam) == GradedChar.of(lam)


def test_verma_and_coverma_layers(taft3):
    params, profile, _ = taft3
    lam = params.weight_of(0, 0)
    v = verma_char(profile, lam)
    assert v.degrees() == [-2, -1, 0]
    assert v.layer(0) == KElement.of(params.weight_of(0, 0))
    assert v.layer(-1) == KElement.of(params.weight_of(1, 1))
    assert v.layer(-2) == KElement.of(params.weight_of(2, 2))
    w = coverma_char(profile, lam)
    assert w.degrees() == [0, 1, 2]
    assert w.layer(1) == KElement.of(params.weight_of(2, 2))
    assert w.layer(2) == KElement.of(params.weight_of(1, 1))
    assert w.eval_one().dim(profile.system) == 3


def test_verma_dimension_law(taft3):
    params, profile, _ = taft3
    system = profile.system
    for lam in system.weights:
        assert verma_char(profile, lam).dim(system) == 3 * system.dim(lam)
        assert ind_char(profile, lam).dim(system) == 9 * system.dim(lam)


def test_verma_socle_is_twisted_top():
    for n in (2, 3, 4):
        params = TaftParams(n)
        profile, _ = build_profile_and_table(params)
        system = profile.system
        # lambda_v (x) - permutes the weights, and lambda_ov (x) - inverts it
        twist_ov = {b: lam for lam, b in profile.twist_v.items()}
        assert len(twist_ov) == len(system.weights)
        for lam in system.weights:
            bottom = verma_char(profile, lam).layer(-profile.n_top)
            assert bottom == KElement(system.fusion(profile.lambda_v, lam))
            assert bottom == KElement.of(profile.twist_v[lam])
            top = coverma_char(profile, lam).layer(profile.n_top)
            assert top == KElement(system.fusion(profile.lambda_ov, lam))
            assert top == KElement.of(twist_ov[lam])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_duality_identities(n):
    params = TaftParams(n)
    profile, _ = build_profile_and_table(params)
    for lam in profile.system.weights:
        flags = verify_duality_identities(profile, lam)
        assert set(flags) == {
            "coverma_dual_matches_dual_weight",
            "dual_weight_matches_verma_dual",
            "verma_dual_matches_shifted_verma",
            "ungraded_verma_dual",
        }
        assert all(flags.values()), (lam, flags)


@functools.lru_cache(maxsize=None)
def _system(name):
    if name == "S3":
        return WeightSystem(load_group_file(DATA / "s3_group.json"))
    n = int(name[1:])
    return WeightSystem(FiniteGroup.from_generators(n, [tuple((i + 1) % n for i in range(n))]))


@st.composite
def component_lists(draw):
    """A system and a profile's component list over it: the unit, middle
    components of one to three weights, and a one-dimensional top weight.
    In about half the lists component n_top - j is mirrored from
    component j, dual(comp_j) (x) top, for j below n_top / 2, and then a
    middle component, if any, is either random or made symmetric."""
    system = _system(draw(st.sampled_from(["C3", "C4", "C6", "S3"])))
    weights = system.weights
    one_dim = [w for w in weights if system.dim(w) == 1]
    n_top = draw(st.integers(1, 5))
    top = draw(st.sampled_from(one_dim))
    middle = st.dictionaries(st.sampled_from(weights), st.integers(1, 2), min_size=1, max_size=3)
    comps = [KElement.of(system.unit)]
    comps += [KElement(draw(middle)) for _ in range(1, n_top)]
    comps.append(KElement.of(top))
    if draw(st.booleans()):
        v = KElement.of(top)
        for j in range(1, (n_top + 1) // 2):
            comps[n_top - j] = comps[j].dual(system).mul(v, system)
        if n_top % 2 == 0 and draw(st.booleans()):
            x = comps[n_top // 2]
            comps[n_top // 2] = x + x.dual(system).mul(v, system)
    return system, comps


def _identities_hold(system, comps):
    """The four identities of verify_duality_identities at every weight,
    computed from the definitions of the standard and costandard
    characters, without a profile."""
    n = len(comps) - 1
    (top,) = comps[n].terms

    def verma(lam):
        return GradedChar({-j: c.mul(KElement.of(lam), system) for j, c in enumerate(comps)})

    def coverma(lam):
        return GradedChar(
            {j: c.dual(system).mul(KElement.of(lam), system) for j, c in enumerate(comps)}
        )

    for lam in system.weights:
        (twisted,) = system.fusion(top, lam)
        e1 = gc_dual(coverma(twisted), system).shift(n)
        e2 = coverma(system.dual(lam))
        e3 = gc_dual(verma(lam), system)
        e4 = verma(system.dual(twisted)).shift(n)
        if not (e1 == e2 == e3 == e4 and e3.eval_one() == e4.eval_one()):
            return False
    return True


@settings(max_examples=300, deadline=None, derandomize=True)
@given(component_lists())
def test_self_dual_invariant_matches_duality_identities(case):
    # the constructor's one 'self-dual' check accepts a component list
    # exactly when the four duality identities hold at every weight, and
    # then its shifted standard characters are the costandard ones
    system, comps = case
    try:
        profile = NicholsProfile(system, comps)
    except InconsistencyError as exc:
        assert "'self-dual'" in str(exc)
        assert not _identities_hold(system, comps)
        return
    assert _identities_hold(system, comps)
    for lam in system.weights:
        (kap,) = system.fusion(profile.lambda_ov, lam)
        assert profile.vermas[kap].shift(profile.n_top) == coverma_char(profile, lam)


def test_profile_json_round_trip(taft3):
    _, profile, _ = taft3
    obj = profile.to_json("group.json")
    clone = NicholsProfile.from_json(obj, profile.system)
    assert clone.components == profile.components
    obj["components"][1]["deg"] = 5
    with pytest.raises(InputError, match="no-gaps"):
        NicholsProfile.from_json(obj, profile.system)


def test_simple_table_validation(taft3):
    params, profile, table = taft3
    system = profile.system
    lam, other = params.weight_of(0, 0), params.weight_of(1, 1)
    with pytest.raises(InputError, match="leading-term"):
        SimpleTable(system, {lam: GradedChar.of(other)})
    with pytest.raises(InputError, match="nonpositive-degrees"):
        SimpleTable(system, {lam: GradedChar.of(lam) + GradedChar.of(other, deg=1)})
    with pytest.raises(InputError, match="nonnegative"):
        SimpleTable(system, {lam: GradedChar.of(lam) - GradedChar.of(other, deg=-1)})
    assert table[lam].layer(0) == KElement.of(lam)
    assert table.weights() == system.weights
    with pytest.raises(InputError, match="incomplete; missing entries for g0r0, g0r1"):
        SimpleTable(system, {})


def test_lowest_data(taft3):
    params, _, table = taft3
    lam = params.weight_of(0, 2)
    assert table.lowest[lam] == (params.weight_of(1, 0), -1)
    # the lowest-weight map permutes the weights
    bottoms = [b for b, _ in table.lowest.values()]
    assert sorted(bottoms) == sorted(table.lowest) == table.weights()
    for lam, (_, level) in table.lowest.items():
        assert -2 <= level <= 0


def test_lowest_data_violations(taft3):
    params, profile, table = taft3
    system = profile.system
    l0, l1, l2 = (params.weight_of(r, 0) for r in range(3))
    # l0's simple is l0 alone, so its lowest weight is l0
    assert table[l0] == GradedChar.of(l0)
    wide = dict(table.entries)
    wide[l0] = GradedChar.of(l0) + GradedChar({-1: KElement({l1: 1, l2: 1})})
    with pytest.raises(InconsistencyError, match="single-weight"):
        SimpleTable(system, wide)
    clash = dict(table.entries)
    clash[l1] = GradedChar.of(l1) + GradedChar.of(l0, deg=-1)
    with pytest.raises(
        InconsistencyError, match=f"bijection.*entries {l0} and {l1} share the lowest weight {l0}"
    ):
        SimpleTable(system, clash)
    # with several faults the first check in this order fires: each
    # entry, completeness, single-weight, bijection
    both = dict(clash)
    both[l2] = GradedChar.of(l2) + GradedChar({-1: KElement({l0: 1, l1: 1})})
    with pytest.raises(InconsistencyError, match="single-weight"):
        SimpleTable(system, both)
    del both[params.weight_of(2, 2)]
    with pytest.raises(InputError, match="incomplete"):
        SimpleTable(system, both)
    both[l0] = GradedChar.of(l1)
    with pytest.raises(InputError, match="leading-term"):
        SimpleTable(system, both)
