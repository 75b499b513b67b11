import json
import pathlib
import subprocess
import sys

import pytest
from test_jsonio import lowest_layer_message, write_lowest_layer_fault

from doublechar import WeightSystem, bgg, cli, nichols
from doublechar.cyclotomic import Cyclotomic
from doublechar.errors import OracleError
from doublechar.graded import GradedChar

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"

FK3_LINES = [
    "ch P(σ,−) = 2 ch M(σ,−) + ch M(e,+) + ch M(τ,0) + ch M(e,ρ)",
    "ch P(e,+) = 2 ch M(e,+) + 2 ch M(σ,−)",
    "ch P(e,ρ) = ch M(τ,0) + ch M(e,ρ) + ch M(σ,−)",
]


def run(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def taft_files(tmp_path_factory):
    out = tmp_path_factory.mktemp("taft3")
    code = cli.main(["taft", "3", "--out", str(out)])
    assert code == 0
    return out


def test_weights_s3(capsys):
    code, out, _ = run(
        capsys,
        "weights",
        "--group", DATA / "s3_group.json",
        "--aliases", DATA / "fk3_aliases.json",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 9
    assert lines[-1] == "8 weights; sum of squared dimensions = 36"
    assert lines[4].startswith("g1r1  σ,−  class_size=3")


def test_weights_trivial_group(capsys, tmp_path):
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps({"format": 1, "degree": 1, "generators": []}))
    code, out, _ = run(capsys, "weights", "--group", path)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("g0r0")


def test_fusion_example(capsys):
    code, out, _ = run(
        capsys, "fusion", "--group", DATA / "c3_group.json", "g1r2", "g2r2"
    )
    assert code == 0
    assert out.strip() == "g1r2 (x) g2r2 = g0r1"


def test_bgg_fk3_lines(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        "bgg",
        "--group", DATA / "s3_group.json",
        "--profile", DATA / "fk3_ml.json",
        "--aliases", DATA / "fk3_aliases.json",
        "--out", tmp_path,
    )
    assert code == 0
    for line in FK3_LINES:
        assert line in out
    text = (tmp_path / "report.txt").read_text(encoding="utf-8")
    for line in FK3_LINES:
        assert line in text


def test_bgg_is_byte_deterministic(capsys, tmp_path):
    outs = []
    for sub in ("a", "b"):
        code, _, _ = run(
            capsys,
            "bgg",
            "--group", DATA / "s3_group.json",
            "--profile", DATA / "fk3_ml.json",
            "--out", tmp_path / sub,
        )
        assert code == 0
        outs.append(
            (
                (tmp_path / sub / "report.json").read_bytes(),
                (tmp_path / sub / "report.txt").read_bytes(),
            )
        )
    assert outs[0] == outs[1]


def test_taft_summary_lines(capsys):
    code, out, _ = run(capsys, "taft", "2")
    assert code == 0
    assert out.strip() == "all 4 weights verified; 2 simple projective Vermas"
    code, out, _ = run(capsys, "taft", "3")
    assert out.strip() == "all 9 weights verified; 3 simple projective Vermas"


def test_bgg_on_taft_files(capsys, taft_files):
    code, out, _ = run(
        capsys,
        "bgg",
        "--group", taft_files / "group.json",
        "--profile", taft_files / "profile.json",
        "--simples", taft_files / "simples.json",
        "--aliases", taft_files / "aliases.json",
    )
    assert code == 0
    assert "ch P(2,1) = ch M(2,1) + t^2 ch M(0,2)" in out
    assert "simple projective Vermas (3): 0,1, 1,0, 2,2" in out


def test_bgg_ungraded_flag(capsys, taft_files):
    code, out, _ = run(
        capsys,
        "bgg",
        "--group", taft_files / "group.json",
        "--profile", taft_files / "profile.json",
        "--simples", taft_files / "simples.json",
        "--aliases", taft_files / "aliases.json",
        "--ungraded",
    )
    assert code == 0
    # every coefficient collapses to a constant, so the graded shift disappears
    assert "ch P(2,1) = ch M(0,2) + ch M(2,1)" in out
    assert "t^" not in out


def test_ind_line(capsys, taft_files):
    code, out, _ = run(
        capsys,
        "ind",
        "--group", taft_files / "group.json",
        "--profile", taft_files / "profile.json",
        "--simples", taft_files / "simples.json",
        "--aliases", taft_files / "aliases.json",
        "g0r0",
    )
    assert code == 0
    assert "ch Ind(0,0) = ch P(0,0) + t ch P(2,2)" in out
    assert "dimension check: 9 = 9" in out


def test_tensor_line(capsys, taft_files):
    code, out, _ = run(
        capsys,
        "tensor",
        "--group", taft_files / "group.json",
        "--profile", taft_files / "profile.json",
        "--simples", taft_files / "simples.json",
        "--aliases", taft_files / "aliases.json",
        "2,2", "2,2",
    )
    assert code == 0
    assert "P(2,2) (x) P(2,2) = t^-2 Ind(0,0)" in out
    assert "dimension check: 9 = 9" in out


def test_verify_taft_files(capsys, taft_files):
    code, out, _ = run(
        capsys,
        "verify",
        "--group", taft_files / "group.json",
        "--profile", taft_files / "profile.json",
        "--simples", taft_files / "simples.json",
    )
    assert code == 0
    assert out.count("ok:") == 6


def test_verify_builds_each_character_once(capsys, monkeypatch, taft_files):
    """The profile builds every weight's standard character once and
    reads the costandard one off it, shifted: no costandard character is
    built from the dual components, and no duality identity or report
    law is re-checked.  No induced module is expanded: that line holds by
    construction.  Every taft weight is invertible, so each product is
    one exponent-vector probe and none is projected, and each is
    evaluated once, through the fusion cache: the taft 3 files fuse 24
    distinct such pairs."""
    calls = {"verma_char": 0, "coverma_char": 0, "ind_into_projectives": 0,
             "_multiplicities": 0, "_times_invertibles": 0}
    pairs = []

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    # replace each function in every doublechar namespace that holds it
    for owner, name in ((nichols, "verma_char"), (nichols, "coverma_char"),
                        (bgg, "ind_into_projectives")):
        real = getattr(owner, name)
        wrapper = counted(name, real)
        for module in list(sys.modules.values()):
            if module.__name__.startswith("doublechar") and getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, wrapper)
    real = WeightSystem._multiplicities
    monkeypatch.setattr(WeightSystem, "_multiplicities", counted("_multiplicities", real))
    real_invertibles = WeightSystem._times_invertibles

    def recording(self, a, b):
        calls["_times_invertibles"] += 1
        pairs.append(frozenset((a, b)))
        return real_invertibles(self, a, b)

    monkeypatch.setattr(WeightSystem, "_times_invertibles", recording)
    code, out, _ = run(capsys, "verify", *_taft_args(taft_files))
    assert code == 0
    assert out.count("ok:") == 6
    W = 9
    assert calls == {"verma_char": W, "coverma_char": 0, "ind_into_projectives": 0,
                     "_multiplicities": 0, "_times_invertibles": 24}
    assert len(set(pairs)) == len(pairs) == 24


def test_verify_ml_fixture(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--group", DATA / "s3_group.json",
        "--profile", DATA / "fk3_ml.json",
    )
    assert code == 0
    assert out.count("ok:") == 3


def test_input_error_exits(capsys, tmp_path):
    code, _, err = run(capsys, "weights", "--group", tmp_path / "absent.json")
    assert code == 2 and "input error" in err
    code, _, err = run(
        capsys, "fusion", "--group", DATA / "c3_group.json", "g9r9", "g0r0"
    )
    assert code == 2 and "unknown weight" in err
    code, _, err = run(capsys, "taft", "13")
    assert code == 2
    code, _, err = run(
        capsys,
        "bgg",
        "--group", DATA / "s3_group.json",
        "--profile", DATA / "s3_group.json",
    )
    assert code == 2


def test_alias_that_is_another_weights_label_exits_2(capsys, tmp_path):
    # naming g0r0 "g1r0" would print g0r0 as g1r0, and "g1r0" on the
    # command line would then resolve to the label, not the alias
    path = tmp_path / "aliases.json"
    path.write_text(json.dumps({"format": 1, "aliases": {"g0r0": "g1r0", "g1r0": "x"}}))
    common = ["--group", DATA / "s3_group.json", "--aliases", path]
    for argv in (["weights", *common], ["fusion", *common, "g1r0", "g0r1"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "alias 'g1r0' for g0r0 is the label of g1r0" in err
    # a weight's own label, or a label this group does not have, is a name
    path.write_text(json.dumps({"format": 1, "aliases": {"g0r0": "g0r0", "g1r0": "g9r0"}}))
    code, out, _ = run(capsys, "fusion", *common, "g9r0", "g0r1")
    assert code == 0
    assert out.strip() == "g9r0 (x) g0r1 = g1r1"


def test_inconsistent_matrix_exits_3(capsys, tmp_path):
    obj = json.loads((DATA / "fk3_ml.json").read_text())
    rows = {r["w"]: r for r in obj["rows"]}
    for w in rows:
        rows[w]["factors"] = [{"w": w, "m": 1}]
    rows["g0r0"]["factors"] = [{"w": "g0r0", "m": 5}]
    path = tmp_path / "bad_ml.json"
    path.write_text(json.dumps(obj))
    code, _, err = run(
        capsys, "bgg", "--group", DATA / "s3_group.json", "--profile", path
    )
    assert code == 3
    assert "inconsistency" in err



def test_ml_matrix_with_a_fractional_pinned_dimension_exits_3(capsys, tmp_path):
    # the shipped matrix is singular, but it pins dim L(g0r1); a row
    # {g0r1: 5} makes that 12/5
    def scale(obj):
        (row,) = [r for r in obj["rows"] if r["w"] == "g0r1"]
        row["factors"] = [{"w": "g0r1", "m": 5}]

    path = _write_mutated(DATA / "fk3_ml.json", tmp_path / "ml.json", scale)
    for command in ("verify", "bgg"):
        code, out, err = run(capsys, command, "--group", DATA / "s3_group.json", "--profile", path)
        assert code == 3 and out == ""
        assert err == (
            f"inconsistency: {path}: composition matrix does not admit positive "
            "integral simple dimensions: dim L(g0r1) = 12/5\n"
        )


@pytest.mark.parametrize("name", ["profile", "simples", "aliases", "ml_matrix"])
def test_file_format_other_than_1_exits_2(capsys, tmp_path, taft_files, name):
    def bump(obj):
        obj["format"] = 2

    if name == "ml_matrix":
        path = _write_mutated(DATA / "fk3_ml.json", tmp_path / "ml.json", bump)
        argv = ["bgg", "--group", DATA / "s3_group.json", "--profile", path]
    else:
        path = _write_mutated(taft_files / f"{name}.json", tmp_path / f"{name}.json", bump)
        argv = ["bgg", *_taft_args(taft_files), "--aliases", taft_files / "aliases.json"]
        argv += [f"--{name}", path]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert f"{path}: unsupported file format: 2" in err


@pytest.mark.parametrize("name", ["group", "profile", "simples", "aliases"])
@pytest.mark.parametrize("kind", ["directory", "not_utf8", "deep_array", "huge_int"])
def test_unreadable_input_exits_2(capsys, tmp_path, taft_files, kind, name):
    path = tmp_path / f"{name}.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "not_utf8":
        path.write_bytes(b"\xff\xfe")
    elif kind == "deep_array":
        path.write_text("[" * 100_000)
    else:
        # past the 4,300 digits that int() converts from a string
        path.write_text('{"format": 1, "degree": ' + "7" * 5000 + ', "generators": []}')
    code, out, err = run(capsys, "bgg", *_taft_args(taft_files), f"--{name}", path)
    assert code == 2 and out == ""
    assert err.startswith("input error: ") and str(path) in err
    assert "Traceback" not in err


def test_unwritable_out_exits_2(capsys, tmp_path):
    blocker = tmp_path / "FILE"
    blocker.write_text("")
    path = blocker / "x.json"
    code, _, err = run(capsys, "weights", "--group", DATA / "c3_group.json", "--out", path)
    assert code == 2
    assert err.startswith(f"input error: cannot write {path}: ")


def test_span_failure_dumps_residual(capsys, tmp_path, taft_files):
    obj = json.loads((taft_files / "simples.json").read_text())
    for entry in obj["simples"]:
        if entry["w"] == "g0r2":
            entry["char"] = {
                "char": [
                    {"deg": 0, "weights": [{"w": "g0r2", "m": 1}]},
                    {"deg": -2, "weights": [{"w": "g1r0", "m": 1}]},
                ]
            }
    path = tmp_path / "warped.json"
    path.write_text(json.dumps(obj))
    code, _, err = run(
        capsys,
        "bgg",
        "--group", taft_files / "group.json",
        "--profile", taft_files / "profile.json",
        "--simples", path,
    )
    assert code == 3
    assert "residual character" in err


def test_oracle_failure_exits_4(capsys, monkeypatch):
    def boom(params):
        raise OracleError("forced failure")

    monkeypatch.setattr(cli, "VermaMatrices", boom)
    code, _, err = run(capsys, "taft", "3")
    assert code == 4
    assert "oracle verification failed" in err


def test_taft_disagreement_prints_both_series(capsys, monkeypatch):
    real = cli.VermaMatrices

    class Shifted:
        # the matrix series of every weight, one degree lower
        def __init__(self, params):
            self.series = {
                rs: tuple((f, k - 1) for f, k in series)
                for rs, series in real(params).series.items()
            }

    monkeypatch.setattr(cli, "VermaMatrices", Shifted)
    code, out, err = run(capsys, "taft", "3")
    assert code == 4 and out == ""
    assert (
        "engine decomposition of the Verma of (0,0) disagrees with the matrix "
        "composition series: engine L(0,0) + t^-1 L(1,1), "
        "matrices t^-1 L(0,0) + t^-2 L(1,1)"
    ) in err


def test_taft_classification_failure_prints_both_sets(capsys, monkeypatch):
    def flag_unit(report, w):
        report.flags[w["g0r0"]] = cli.SIMPLE_PROJECTIVE

    _patch_report(monkeypatch, "bgg_matrices", flag_unit)
    code, out, err = run(capsys, "taft", "3")
    assert code == 4 and out == ""
    assert (
        "simple projective classification does not match the rank-one rule: "
        "flagged ['0,0', '0,1', '1,0', '2,2'], expected ['0,1', '1,0', '2,2']"
    ) in err


def test_cache_dir_env_and_flag(capsys, tmp_path, monkeypatch):
    env_dir = tmp_path / "env_cache"
    flag_dir = tmp_path / "flag_cache"
    env_dir.mkdir()
    flag_dir.mkdir()
    monkeypatch.setenv("DOUBLECHAR_CACHE_DIR", str(env_dir))
    code, _, _ = run(capsys, "weights", "--group", DATA / "s3_group.json")
    assert code == 0
    assert list(env_dir.glob("chartable-*.json"))
    code, _, _ = run(
        capsys,
        "weights",
        "--group", DATA / "c3_group.json",
        "--cache-dir", flag_dir,
    )
    assert code == 0
    # the flag wins over the environment
    assert list(flag_dir.glob("chartable-*.json"))


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "doublechar.cli", "taft", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "all 4 weights verified" in proc.stdout


def _taft_args(taft_files):
    # a later --profile or --simples on the command line overrides these
    return [
        a for k in ("group", "profile", "simples") for a in (f"--{k}", taft_files / f"{k}.json")
    ]


def test_bgg_filtration_mismatch_names_both_characters(capsys, tmp_path, taft_files):
    # component 2 of the taft 3 profile repeated from component 1: its
    # standard and costandard filtrations would carry different characters,
    # and the profile is refused when it loads, before any report is built
    def square(obj):
        obj["components"][2]["weights"] = [{"w": "g1r1", "m": 1}]

    def flat(obj):
        for item in obj["simples"]:
            item["char"]["char"] = [d for d in item["char"]["char"] if d["deg"] == 0]

    profile = _write_mutated(taft_files / "profile.json", tmp_path / "profile.json", square)
    simples = _write_mutated(taft_files / "simples.json", tmp_path / "simples.json", flat)
    code, out, err = run(
        capsys, "bgg", *_taft_args(taft_files), "--profile", profile, "--simples", simples
    )
    assert code == 3 and out == ""
    assert err == (
        f"inconsistency: {profile}: profile invariant 'self-dual' violated: the dual of "
        "component 1 is g2r2, but component 1 times g2r2 is g0r0\n"
    )


@pytest.mark.parametrize(
    "command", [["bgg"], ["ind", "g0r0"], ["tensor", "g0r0", "g1r1"], ["verify"]]
)
def test_non_self_dual_profile_exits_3_at_load(capsys, tmp_path, command, taft_files):
    # component 1 of the taft 3 profile set to the unit: every command that
    # reads the profile refuses it before printing anything
    def unit_first(obj):
        obj["components"][1]["weights"] = [{"w": "g0r0", "m": 1}]

    profile = _write_mutated(taft_files / "profile.json", tmp_path / "profile.json", unit_first)
    code, out, err = run(capsys, command[0], *_taft_args(taft_files), "--profile", profile,
                         *command[1:])
    assert code == 3 and out == ""
    assert err == (
        f"inconsistency: {profile}: profile invariant 'self-dual' violated: the dual of "
        "component 1 is g0r0, but component 1 times g1r1 is g1r1\n"
    )


# The engine's own report checks.  No shipped or generated file reaches
# them: they follow from the invariants of a profile built through its
# constructor and of a fusion that is commutative and dimension-preserving,
# so these tests corrupt the fusion or the profile's characters.  The
# report the engine returns is never changed.


def _corrupt_fusion(monkeypatch, corrupt):
    """Make WeightSystem.fusion(lam, mu) return corrupt(lam.label,
    mu.label, result, by_label), for every system built afterwards."""
    real = WeightSystem.fusion

    def fusion(self, lam, mu):
        return corrupt(lam.label, mu.label, real(self, lam, mu), self.by_label)

    monkeypatch.setattr(WeightSystem, "fusion", fusion)


def test_ind_character_mismatch_exits_3(capsys, monkeypatch, taft_files):
    # the standard character M(g0r1) gains g1r2 at t^-1.  The profile's
    # costandard W(g2r0) is t^2 M(lambda_ov (x) g2r0), the shifted M(g0r1),
    # so it gains g1r2 at t^1 with no corruption of its own: both
    # filtrations of every projective still agree, but the induced
    # character of g0r1 does not
    real_verma = nichols.verma_char

    def verma_char(profile, lam):
        ch = real_verma(profile, lam)
        if lam.label == "g0r1":
            ch = ch + GradedChar.of(profile.system.by_label["g1r2"], -1)
        return ch

    monkeypatch.setattr(nichols, "verma_char", verma_char)
    code, out, err = run(capsys, "bgg", *_taft_args(taft_files))
    assert code == 0
    code, out, err = run(capsys, "ind", *_taft_args(taft_files), "g0r1")
    assert code == 3 and out == ""
    assert err == (
        "inconsistency: projective expansion of the induced module of g0r1 does not "
        "match its character: "
        "expanded (g2r0)*t^-2 + (3*g1r2)*t^-1 + (3*g0r1) + (2*g2r0)*t + (g1r2)*t^2, "
        "expected (g2r0)*t^-2 + (3*g1r2)*t^-1 + (4*g0r1) + (3*g2r0)*t + (g1r2)*t^2\n"
    )


def test_tensor_dimension_mismatch_exits_3(capsys, monkeypatch, taft_files):
    # g2r0 (x) g0r1 counted twice; no character of the profile multiplies
    # these two weights, so only the tensor expansion sees it
    def corrupt(lam, mu, result, by_label):
        if {lam, mu} == {"g2r0", "g0r1"}:
            return {w: 2 * m for w, m in result.items()}
        return result

    _corrupt_fusion(monkeypatch, corrupt)
    code, out, err = run(capsys, "tensor", *_taft_args(taft_files), "g0r1", "g0r1")
    assert code == 3 and out == ""
    assert err == (
        "inconsistency: tensor of projectives of g0r1 and g0r1 has dimension 18, "
        "expected 9\n"
    )


def _patch_report(monkeypatch, name, mutate):
    """Make cli.<name> return a report changed in place by
    mutate(report, by_label)."""
    real = getattr(cli, name)

    def patched(*args):
        report = real(*args)
        mutate(report, report.system.by_label)
        return report

    monkeypatch.setattr(cli, name, patched)


def _write_mutated(src, dst, mutate):
    obj = json.loads(src.read_text(encoding="utf-8"))
    mutate(obj)
    dst.write_text(json.dumps(obj), encoding="utf-8")
    return dst


def test_profile_missing_weights_exits_2(capsys, tmp_path, taft_files):
    def drop(obj):
        del obj["components"][1]["weights"]

    path = _write_mutated(taft_files / "profile.json", tmp_path / "profile.json", drop)
    code, _, err = run(capsys, "bgg", *_taft_args(taft_files), "--profile", path)
    assert code == 2
    assert "'weights'" in err and "Traceback" not in err


def test_simples_missing_label_exits_2(capsys, tmp_path, taft_files):
    def drop(obj):
        del obj["simples"][2]["w"]

    path = _write_mutated(taft_files / "simples.json", tmp_path / "simples.json", drop)
    code, _, err = run(capsys, "bgg", *_taft_args(taft_files), "--simples", path)
    assert code == 2
    assert "'w'" in err


def test_ml_matrix_missing_rows_exits_2(capsys, tmp_path):
    def drop(obj):
        del obj["rows"]

    path = _write_mutated(DATA / "fk3_ml.json", tmp_path / "ml.json", drop)
    code, _, err = run(capsys, "bgg", "--group", DATA / "s3_group.json", "--profile", path)
    assert code == 2
    assert "'rows'" in err


def test_simples_missing_an_entry_exits_2(capsys, tmp_path, taft_files):
    def drop_last(obj):
        del obj["simples"][-1]

    path = _write_mutated(taft_files / "simples.json", tmp_path / "simples.json", drop_last)
    code, out, err = run(capsys, "bgg", *_taft_args(taft_files), "--simples", path)
    assert code == 2 and out == ""
    assert "simple table is incomplete; missing entries for g2r2" in err


@pytest.mark.parametrize("fault", ["single-weight", "bijection"])
def test_simples_breaking_a_lowest_layer_invariant_exits_3_naming_its_path(
    capsys, tmp_path, taft_files, fault
):
    path = write_lowest_layer_fault(taft_files / "simples.json", tmp_path / "simples.json", fault)
    for command, stdout in (("bgg", ""), ("verify", "ok: duality identities (9 weights)\n")):
        code, out, err = run(capsys, command, *_taft_args(taft_files), "--simples", path)
        assert code == 3 and out == stdout
        assert err == f"inconsistency: {lowest_layer_message(path, fault)}\n"


def test_noncanonical_alias_label_exits_2(capsys, tmp_path):
    # the aliases are looked up by canonical label, so "g01r0" would be
    # dropped without a word
    path = tmp_path / "aliases.json"
    path.write_text(json.dumps({"format": 1, "aliases": {"g01r0": "sigma"}}))
    code, out, err = run(capsys, "weights", "--group", DATA / "s3_group.json", "--aliases", path)
    assert code == 2 and out == ""
    assert "malformed weight label 'g01r0'" in err


def test_permuted_cached_table_is_recomputed(capsys, tmp_path):
    cache = tmp_path / "cache"
    args = ["weights", "--group", DATA / "s3_group.json", "--aliases", DATA / "fk3_aliases.json"]
    code, want, _ = run(capsys, *args, "--cache-dir", cache)
    assert code == 0
    # S3 is the only cached group of exponent 6; its rows 1 and 2 are the
    # sign and the 2-dimensional character
    (entry,) = [p for p in cache.glob("chartable-*.json") if json.loads(p.read_text())["exponent"] == 6]
    canonical = entry.read_text()

    def swap(obj):
        obj["values"][1], obj["values"][2] = obj["values"][2], obj["values"][1]

    _write_mutated(entry, entry, swap)
    code, got, _ = run(capsys, *args, "--cache-dir", cache)
    assert code == 0
    assert got == want
    assert json.loads(entry.read_text()) == json.loads(canonical)


def _short_rows(obj):
    obj["values"] = [row[:-1] for row in obj["values"]]


def _doubled_exponent(obj):
    # the same values, re-embedded in Q(zeta_12): a valid table, but in
    # a field that is not the one the group's exponent gives
    e = obj["exponent"]
    obj["values"] = [
        [list(Cyclotomic(e, coeffs).embed(2 * e).coeffs) for coeffs in row]
        for row in obj["values"]
    ]
    obj["exponent"] = 2 * e


def _float_coefficients(obj):
    obj["values"] = [[[float(c) for c in coeffs] for coeffs in row] for row in obj["values"]]


def _bool_coefficient(obj):
    # the trivial character at the identity is [1, 0] in Q(zeta_6)
    assert obj["values"][0][0][0] == 1
    obj["values"][0][0][0] = True


@pytest.mark.parametrize(
    "mutate",
    [_short_rows, _doubled_exponent, _float_coefficients, _bool_coefficient],
    ids=["short-rows", "doubled-exponent", "float-coefficients", "bool-coefficient"],
)
def test_misshapen_cached_table_is_recomputed(capsys, tmp_path, mutate):
    cache = tmp_path / "cache"
    args = ["weights", "--group", DATA / "s3_group.json", "--cache-dir", cache]
    code, want, _ = run(capsys, *args)
    assert code == 0
    (entry,) = [p for p in cache.glob("chartable-*.json") if json.loads(p.read_text())["exponent"] == 6]
    canonical = entry.read_text()
    _write_mutated(entry, entry, mutate)
    code, got, err = run(capsys, *args)
    assert code == 0, err
    assert got == want
    # the entry was rejected and rewritten from a fresh computation;
    # compared as bytes, since json.loads takes 1.0 and true for 1
    assert entry.read_text() == canonical


def test_deeply_nested_cached_table_is_recomputed(capsys, tmp_path):
    # json gives up on this entry with a RecursionError, not a ValueError
    cache = tmp_path / "cache"
    args = ["weights", "--group", DATA / "s3_group.json", "--cache-dir", cache]
    code, want, _ = run(capsys, *args)
    assert code == 0
    (entry,) = [p for p in cache.glob("chartable-*.json") if json.loads(p.read_text())["exponent"] == 6]
    canonical = entry.read_text()
    entry.write_text("[" * 200000 + "]" * 200000)
    code, got, err = run(capsys, *args)
    assert code == 0, err
    assert got == want
    assert entry.read_text() == canonical


def test_cache_dir_that_is_a_regular_file_is_skipped(capsys, tmp_path):
    plain = tmp_path / "plain"
    plain.write_text("not a directory")
    code, want, _ = run(capsys, "weights", "--group", DATA / "s3_group.json")
    assert code == 0
    code, got, err = run(capsys, "weights", "--group", DATA / "s3_group.json", "--cache-dir", plain)
    assert code == 0, err
    assert got == want
    assert plain.read_text() == "not a directory"
    assert [p.name for p in tmp_path.iterdir()] == ["plain"]


def test_taft_has_no_cache(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("DOUBLECHAR_CACHE_DIR", str(tmp_path))
    code, out, _ = run(capsys, "taft", "3")
    assert code == 0 and out == "all 9 weights verified; 3 simple projective Vermas\n"
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(SystemExit):
        cli.main(["taft", "3", "--cache-dir", str(tmp_path)])


@pytest.mark.parametrize(
    "group, message",
    [
        ({"degree": 3, "generators": [[1, 2.9, 0]]}, "must be integers"),
        ({"degree": 3.7, "generators": [[1, 2, 0]]}, "must be integers"),
        ({"degree": "3", "generators": [[1, 2, 0]]}, "must be integers"),
        ({"degree": True, "generators": []}, "must be integers"),
        ({"degree": 2, "generators": [[True, False]]}, "must be integers"),
        ({"format": True, "degree": 1, "generators": []}, "unsupported group file format"),
    ],
    ids=[
        "float-point",
        "float-degree",
        "string-degree",
        "bool-degree",
        "bool-points",
        "bool-format",
    ],
)
def test_group_file_with_non_integers_exits_2(capsys, tmp_path, group, message):
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"format": 1, **group}))
    code, out, err = run(capsys, "weights", "--group", path)
    assert code == 2
    assert message in err and out == ""


def _set_first_factor_m(obj):
    obj["rows"][1]["factors"][0]["m"] = True


def _set_n_top(obj):
    obj["n_top"] = True


def _set_dim_b(obj):
    obj["dim_b"] = True


@pytest.mark.parametrize(
    "mutate", [_set_first_factor_m, _set_n_top, _set_dim_b], ids=["m", "n_top", "dim_b"]
)
def test_ml_matrix_boolean_for_integer_exits_2(capsys, tmp_path, mutate):
    path = _write_mutated(DATA / "fk3_ml.json", tmp_path / "ml.json", mutate)
    code, _, err = run(
        capsys, "verify", "--group", DATA / "s3_group.json", "--profile", path
    )
    assert code == 2
    assert "input error" in err


def _set_profile_m(obj):
    obj["components"][1]["weights"][0]["m"] = True


def _set_profile_deg(obj):
    obj["components"][1]["deg"] = True


def _set_simple_deg(obj):
    obj["simples"][0]["char"]["char"][0]["deg"] = False


@pytest.mark.parametrize(
    "name, mutate",
    [
        ("profile", _set_profile_m),
        ("profile", _set_profile_deg),
        ("simples", _set_simple_deg),
    ],
    ids=["profile-m", "profile-deg", "simples-deg"],
)
def test_graded_boolean_for_integer_exits_2(capsys, tmp_path, taft_files, name, mutate):
    src = taft_files / f"{name}.json"
    path = _write_mutated(src, tmp_path / f"{name}.json", mutate)
    code, _, err = run(capsys, "bgg", *_taft_args(taft_files), f"--{name}", path)
    assert code == 2
    assert "must be an integer" in err
