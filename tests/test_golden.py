"""Golden contract: the CLI's stdout and files stay byte-identical.

Every case is a CLI run whose output bytes are hashed with sha256 and
compared with `tests/golden/digests.json`.  The digests were recorded
before the fusion layer was rewritten, so any refactor that changes a
byte of a report, a census or a decomposition fails here.  The
`taft 8..12` digests were added later, recorded before the same-order
Cyclotomic route, whose kernel does most work at those orders.  The S4
digests were added before every weight system moved its values to one
field Q(zeta_(e_G)): S4's centralizer exponents 2, 3 and 4 under e_G = 12
are the mixed orders that change removed, where S3 and C3 only reach
orders 2 and 3 under 6.  The four input files that `taft 2..12 --out`
writes beside its report (`group.json`, `profile.json`, `simples.json`
and `aliases.json`) were added before the profile and simple-table
classes took over writing their own format envelope.

To record the digests again (only when an output change is intended):

    PYTHONPATH=src python tests/test_golden.py --record
"""

import contextlib
import hashlib
import io
import itertools
import json
import pathlib
import sys
import tempfile

from doublechar import cli

HERE = pathlib.Path(__file__).resolve().parent
DATA = HERE.parent / "data"
DIGESTS = HERE / "golden" / "digests.json"

S3 = str(DATA / "s3_group.json")
C3 = str(DATA / "c3_group.json")
S4 = str(DATA / "s4_group.json")
FK3_ML = str(DATA / "fk3_ml.json")
FK3_ALIASES = str(DATA / "fk3_aliases.json")
S3_LABELS = ["g0r0", "g0r1", "g0r2", "g1r0", "g1r1", "g2r0", "g2r1", "g2r2"]
C3_LABELS = [f"g{i}r{j}" for i in range(3) for j in range(3)]
# S4 weights: the centralizer tables of classes 0..4 have 5, 4, 3, 5, 4 rows
S4_LABELS = [f"g{i}r{j}" for i, rows in enumerate((5, 4, 3, 5, 4)) for j in range(rows)]


def _stdout(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise AssertionError(f"doublechar {' '.join(map(str, argv))} exited {code}")
    return buf.getvalue().encode("utf-8")


def outputs(tmp):
    """Case name -> output bytes for every golden CLI run."""
    tmp = pathlib.Path(tmp)
    out = {}
    for n in range(2, 13):
        d = tmp / f"taft{n}"
        out[f"taft{n}.stdout"] = _stdout(["taft", n, "--out", d])
        out[f"taft{n}.report.json"] = (d / "report.json").read_bytes()
        out[f"taft{n}.report.txt"] = (d / "report.txt").read_bytes()
        for name in ("group", "profile", "simples", "aliases"):
            out[f"taft{n}.{name}.json"] = (d / f"{name}.json").read_bytes()

    out["weights.s3.stdout"] = _stdout(["weights", "--group", S3, "--aliases", FK3_ALIASES])
    out["weights.c3.stdout"] = _stdout(["weights", "--group", C3])
    out["weights.s4.stdout"] = _stdout(["weights", "--group", S4])
    for group, labels, name in (
        (S3, S3_LABELS, "s3"),
        (C3, C3_LABELS, "c3"),
        (S4, S4_LABELS, "s4"),
    ):
        lines = b"".join(
            _stdout(["fusion", "--group", group, a, b])
            for a, b in itertools.combinations_with_replacement(labels, 2)
        )
        out[f"fusion.{name}.stdout"] = lines

    fk3 = ["--group", S3, "--profile", FK3_ML, "--aliases", FK3_ALIASES]
    out["bgg.fk3.stdout"] = _stdout(["bgg", *fk3, "--out", tmp / "fk3"])
    out["bgg.fk3.report.json"] = (tmp / "fk3" / "report.json").read_bytes()
    out["bgg.fk3.ungraded.stdout"] = _stdout(["bgg", *fk3, "--ungraded", "--out", tmp / "fk3u"])
    out["bgg.fk3.ungraded.report.json"] = (tmp / "fk3u" / "report.json").read_bytes()
    out["verify.fk3.stdout"] = _stdout(["verify", "--group", S3, "--profile", FK3_ML])

    t3 = tmp / "taft3"
    files = [
        "--group", t3 / "group.json",
        "--profile", t3 / "profile.json",
        "--simples", t3 / "simples.json",
        "--aliases", t3 / "aliases.json",
    ]
    out["bgg.taft3.stdout"] = _stdout(["bgg", *files])
    _stdout(["bgg", *files, "--ungraded", "--out", tmp / "taft3u"])
    out["bgg.taft3.ungraded.report.json"] = (tmp / "taft3u" / "report.json").read_bytes()
    out["verify.taft3.stdout"] = _stdout(["verify", *files])
    labels = [f"g{i}r{j}" for i in range(3) for j in range(3)]
    out["ind.taft3.stdout"] = b"".join(_stdout(["ind", *files, w]) for w in labels)
    out["tensor.taft3.stdout"] = b"".join(
        _stdout(["tensor", *files, a, b])
        for a, b in itertools.combinations_with_replacement(labels, 2)
    )
    return out


def digests(tmp):
    return {k: hashlib.sha256(v).hexdigest() for k, v in sorted(outputs(tmp).items())}


def test_golden_digests(tmp_path):
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = digests(tmp_path)
    assert sorted(got) == sorted(want)
    changed = [k for k in want if got[k] != want[k]]
    assert not changed, f"outputs differ from the golden digests: {changed}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as tmp:
        found = digests(tmp)
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(found, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(found)} digests in {DIGESTS}")
