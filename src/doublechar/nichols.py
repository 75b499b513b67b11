"""Triangular setup data: graded algebra profile and simple-character tables.

A profile records the graded character of a braided graded algebra
whose components are weights of the double: component j sits in degree
-j when inducing from below (standard modules) and degree +j through
its dual when inducing from above (costandard modules).  The top
component must be one-dimensional; its weight lambda_v and that
weight's dual lambda_ov drive all the twisting.  The algebra's
one-dimensional top degree pairs degree j with degree n_top - j, so a
profile must be self-dual: dual(comp_j) = comp_(n_top-j) (x) lambda_ov
for every j.  Then ch W(lam) = t^n_top ch M(lambda_ov (x) lam), the
costandard characters are shifted standard ones, and the duality
identities of `verify_duality_identities` hold at every weight.  A
validated profile carries, built once for every weight lam, the
standard character ch M(lam) and the twist lambda_v (x) lam, read off
the bottom layer of ch M(lam); its inverse is lambda_ov (x) -.  A simple
table holds one character L(lam), the head of M(lam), for every weight
lam.

Profiles and simple tables are input data, complete and validated once
built here, so the reciprocity engine only computes; nothing in this
module tries to compute them from a braiding.
"""

from __future__ import annotations

from .errors import Frozen, InconsistencyError, InputError, field
from .graded import GradedChar, KElement, gc_dual, gc_mul


class NicholsProfile(Frozen):
    """Graded character of the inducing algebra, one KElement per degree."""

    # dim_b is the total dimension of the inducing algebra; vermas maps
    # each weight lam to ch M(lam), and twist_v maps lam to
    # lambda_v (x) lam; ch W(lam) = t^n_top ch M(lambda_ov (x) lam) is
    # read off vermas where it is needed
    __slots__ = ("system", "components", "n_top", "lambda_v", "lambda_ov",
                 "dim_b", "vermas", "twist_v")
    KIND = "profile"

    def __init__(self, system, components):
        if not components:
            raise InputError("profile invariant 'nonempty' violated: no components")
        n_top = len(components) - 1
        unit = KElement.of(system.unit)
        if components[0] != unit:
            raise InputError(
                "profile invariant 'bottom-is-unit' violated: "
                "component 0 must be the unit weight with multiplicity 1"
            )
        for j, comp in enumerate(components):
            if not comp.is_nonnegative():
                raise InputError(
                    "profile invariant 'nonnegative' violated: "
                    f"component {j} has a negative multiplicity"
                )
            if comp.is_zero():
                raise InputError(
                    "profile invariant 'no-gaps' violated: "
                    f"component {j} is empty"
                )
        top = components[n_top]
        if len(top.terms) != 1 or next(iter(top.terms.values())) != 1:
            raise InputError(
                "profile invariant 'one-dimensional-top' violated: "
                "the top component must be a single weight with multiplicity 1"
            )
        lam_v = next(iter(top.terms))
        if system.dim(lam_v) != 1:
            raise InputError(
                "profile invariant 'one-dimensional-top' violated: "
                "the top weight must be one-dimensional"
            )
        lam_ov = system.dual(lam_v)
        # j = 0 says lambda_v (x) lambda_ov is the unit
        for j, dual in enumerate(k.dual(system) for k in components):
            mirror = components[n_top - j].mul(KElement.of(lam_ov), system)
            if dual != mirror:
                raise InconsistencyError(
                    "profile invariant 'self-dual' violated: the dual of "
                    f"component {j} is {dual!r}, but component {n_top - j} "
                    f"times {lam_ov} is {mirror!r}"
                )
        self._set(
            system=system,
            components=tuple(components),
            n_top=n_top,
            lambda_v=lam_v,
            lambda_ov=lam_ov,
            dim_b=sum(k.dim(system) for k in components),
        )
        vermas = {lam: verma_char(self, lam) for lam in system.weights}
        # the bottom layer of M(lam) is the single weight lambda_v (x) lam,
        # whose inverse map is lambda_ov (x) - because j = 0 held above
        self._set(
            vermas=vermas,
            twist_v={lam: next(iter(m.layer(-n_top).terms)) for lam, m in vermas.items()},
        )

    def to_json(self, group_ref):
        return {
            "format": 1,
            "kind": self.KIND,
            "group": group_ref,
            "components": [
                {"deg": j, "weights": k.to_json()}
                for j, k in enumerate(self.components)
            ],
        }

    @classmethod
    def from_json(cls, obj, system):
        by_deg = {}
        for entry in field(obj, "components", list, "profile payload"):
            j = field(entry, "deg", int, "profile component")
            if j < 0:
                raise InputError("profile component degrees must be nonnegative")
            if j in by_deg:
                raise InputError(f"duplicate profile component degree {j}")
            by_deg[j] = KElement.from_json(
                field(entry, "weights", list, "profile component"), system, "profile weight"
            )
        if sorted(by_deg) != list(range(len(by_deg))):
            raise InputError(
                "profile invariant 'no-gaps' violated: "
                "component degrees must be 0..n_top without gaps"
            )
        return cls(system, [by_deg[j] for j in range(len(by_deg))])


def verma_char(profile, lam):
    """Standard module character: component j acts at degree -j."""
    base = KElement.of(lam)
    return GradedChar(
        {-j: k.mul(base, profile.system) for j, k in enumerate(profile.components)}
    )


def coverma_char(profile, lam):
    """Costandard module character: dual components act at degree +j."""
    system = profile.system
    base = KElement.of(lam)
    return GradedChar(
        {j: k.dual(system).mul(base, system) for j, k in enumerate(profile.components)}
    )


def ind_char(profile, lam):
    """Character of the module induced from the group part alone:
    W(unit) M(lam), where W(unit) = t^n_top M(lambda_ov)."""
    unit_coverma = profile.vermas[profile.lambda_ov].shift(profile.n_top)
    return gc_mul(unit_coverma, profile.vermas[lam], profile.system)


def verify_duality_identities(profile, lam):
    """Exact equalities tying duals, twists and shifts of standard and
    costandard characters.  Returns an ordered dict of named pass/fail
    flags; nothing is thrown on failure."""
    system = profile.system
    n = profile.n_top
    twisted = profile.twist_v[lam]

    e1 = gc_dual(coverma_char(profile, twisted), system).shift(n)
    e2 = coverma_char(profile, system.dual(lam))
    e3 = gc_dual(profile.vermas[lam], system)
    e4 = profile.vermas[system.dual(twisted)].shift(n)

    return {
        "coverma_dual_matches_dual_weight": e1 == e2,
        "dual_weight_matches_verma_dual": e2 == e3,
        "verma_dual_matches_shifted_verma": e3 == e4,
        # a shift leaves the value at t = 1 unchanged
        "ungraded_verma_dual": e3.eval_one() == e4.eval_one(),
    }


class SimpleTable(Frozen):
    """Graded characters of the simple modules, one for every weight of
    the system, keyed by highest weight.

    lowest[lam] is the (weight, degree) of the bottom layer of the entry
    of lam.  Each bottom layer is a single weight, and no two entries
    share it, so lam -> lowest weight permutes the weights."""

    __slots__ = ("entries", "lowest")

    def __init__(self, system, entries):
        data = dict(entries)
        for lam, char in data.items():
            if char.is_zero():
                raise InputError(
                    "simple-table invariant 'leading-term' violated: "
                    f"entry {lam} is zero"
                )
            if char.layer(0) != KElement.of(lam):
                raise InputError(
                    "simple-table invariant 'leading-term' violated: "
                    f"degree 0 of entry {lam} must be exactly {lam}"
                )
            if char.max_degree() > 0:
                raise InputError(
                    "simple-table invariant 'nonpositive-degrees' violated: "
                    f"entry {lam} has terms above degree 0"
                )
            if not char.is_nonnegative():
                raise InputError(
                    "simple-table invariant 'nonnegative' violated: "
                    f"entry {lam} has a negative multiplicity"
                )
        missing = [w.label for w in system.weights if w not in data]
        if missing:
            raise InputError(
                "simple table is incomplete; missing entries for " + ", ".join(missing)
            )
        lowest = {}
        for lam in system.weights:
            level = data[lam].min_degree()
            bottom = data[lam].layer(level)
            if len(bottom.terms) != 1:
                raise InconsistencyError(
                    "lowest-layer invariant 'single-weight' violated: "
                    f"entry {lam} has {len(bottom.terms)} weights in degree {level}"
                )
            lowest[lam] = (next(iter(bottom.terms)), level)
        owner = {}
        for lam, (b, _) in lowest.items():
            if b in owner:
                raise InconsistencyError(
                    "lowest-layer invariant 'bijection' violated: "
                    f"entries {owner[b]} and {lam} share the lowest weight {b}"
                )
            owner[b] = lam
        self._set(entries=data, lowest=lowest)

    def __getitem__(self, lam):
        return self.entries[lam]

    def weights(self):
        return sorted(self.entries)

    def to_json(self):
        return {
            "format": 1,
            "simples": [
                {"w": lam.label, "char": self.entries[lam].to_json()}
                for lam in self.weights()
            ]
        }

    @classmethod
    def from_json(cls, obj, system):
        entries = {}
        for item in field(obj, "simples", list, "simple-table payload"):
            lam = system.parse_label(field(item, "w", str, "simple-table entry"))
            if lam in entries:
                raise InputError(f"duplicate simple-table entry for {lam.label}")
            entries[lam] = GradedChar.from_json(
                field(item, "char", dict, "simple-table entry"), system
            )
        return cls(system, entries)
