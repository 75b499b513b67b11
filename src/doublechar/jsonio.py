"""File formats and canonical serialization.

All emitted JSON is canonical: two-space indent, sorted keys, trailing
newline.  Identical inputs therefore produce byte-identical outputs,
which the test suite relies on.  A file is streamed to disk through
`errors.write_atomic` as the walk emits it, with no copy of the whole
text in memory, and read through `errors.load_json`; a refused payload,
too, leaves any previous file as it was.  The loaders wrap every
failure in InputError so the CLI can map them to its input-validation
exit code; an inconsistency found while a group, profile or simple
table loads keeps its type, and its message, like an input error's,
names the file.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

from .bgg import MLMatrixData
from .errors import InconsistencyError, InputError, is_int, load_json, write_atomic
from .groups import DEFAULT_MAX_ORDER, FiniteGroup
from .nichols import NicholsProfile, SimpleTable


def canonical_dumps(obj):
    """The bytes of json.dumps(obj, indent=2, sort_keys=True) + "\n".

    json falls back to its pure-Python encoder whenever indent is set;
    this writer walks the containers itself and hands every string to
    the C escaper.  Keys must be str, and a dict, list or tuple
    subclass is refused rather than written in a way json would not
    write it."""
    parts = []
    _write_canonical(obj, "\n", parts.append)
    parts.append("\n")
    return "".join(parts)


def _write_canonical(obj, newline, out):
    if isinstance(obj, str):
        out(encode_basestring_ascii(obj))
    elif isinstance(obj, int) and not isinstance(obj, bool):
        out(int.__repr__(obj))
    elif type(obj) is dict:
        if not obj:
            out("{}")
            return
        for key in obj:
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(obj):
            out(sep)
            out(encode_basestring_ascii(key))
            out(": ")
            _write_canonical(obj[key], inner, out)
            sep = "," + inner
        out(newline + "}")
    elif type(obj) in (list, tuple):
        if not obj:
            out("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in obj:
            out(sep)
            _write_canonical(item, inner, out)
            sep = "," + inner
        out(newline + "]")
    elif isinstance(obj, (dict, list, tuple)):
        raise TypeError(f"cannot write a {type(obj).__name__} canonically")
    else:
        out(json.dumps(obj))


def write_json(path, obj):
    """Writes canonical_dumps(obj) to path, streaming the walk into the
    file so no copy of the text is built."""

    def fill(fh):
        _write_canonical(obj, "\n", fh.write)
        fh.write("\n")

    write_atomic(path, fill)


def write_text(path, text):
    write_atomic(path, lambda fh: fh.write(text))


def _from_file(path, build, *args):
    """build(*args) for a payload read from path.  An input or
    inconsistency error it raises gains the path in its message and is
    re-raised as the same object, so its type and attributes (a
    SpanError's residual) are kept."""
    try:
        return build(*args)
    except (InputError, InconsistencyError) as exc:
        exc.args = (f"{path}: {exc}",)
        raise exc from None


def load_group_file(path, max_order=DEFAULT_MAX_ORDER):
    return _from_file(path, FiniteGroup.from_json, load_json(path), max_order)


def load_profile_file(path, system):
    """Returns the NicholsProfile or the MLMatrixData the file holds.
    A profile path may hold a graded profile or a plain composition
    matrix; the optional "kind" field tells them apart."""
    payload = _load_payload(path)
    if not isinstance(payload, dict):
        raise InputError("profile payload must be a JSON object")
    kind = payload.get("kind", NicholsProfile.KIND)
    if kind not in (NicholsProfile.KIND, MLMatrixData.KIND):
        raise InputError(f"unrecognized payload kind {kind!r}")
    cls = MLMatrixData if kind == MLMatrixData.KIND else NicholsProfile
    return _from_file(path, cls.from_json, payload, system)


def load_simples_file(path, system):
    return _from_file(path, SimpleTable.from_json, _load_payload(path), system)


def load_aliases_file(path, system):
    """label -> display name; names must be nonempty, unique, and never
    the label of another weight, which would then resolve to two."""
    payload = _load_payload(path)
    if not isinstance(payload, dict) or "aliases" not in payload:
        raise InputError(f"{path}: alias payload must have an 'aliases' object")
    aliases = payload["aliases"]
    if not isinstance(aliases, dict):
        raise InputError(f"{path}: 'aliases' must map labels to names")
    out = {}
    seen = set()
    for label, name in aliases.items():
        try:
            lam = system.parse_label(label)
        except InputError as exc:
            raise InputError(f"{path}: {exc}") from None
        if not isinstance(name, str) or not name:
            raise InputError(f"{path}: alias for {label} must be a nonempty string")
        try:
            other = system.parse_label(name)
        except InputError:
            other = lam  # not a label of this group
        if other != lam:
            raise InputError(f"{path}: alias {name!r} for {label} is the label of {other}")
        if name in seen:
            raise InputError(f"{path}: duplicate alias name {name!r}")
        seen.add(name)
        out[label] = name
    return out


def _load_payload(path):
    """load_json for a file that carries the format envelope its writer
    adds (each class's to_json, or aliases_to_json below): "format" must
    be the integer 1, and a file without one counts as format 1, as a
    group file does."""
    payload = load_json(path)
    fmt = payload.get("format", 1) if isinstance(payload, dict) else 1
    if not is_int(fmt) or fmt != 1:
        raise InputError(f"{path}: unsupported file format: {fmt!r}")
    return payload


def aliases_to_json(aliases):
    return {"format": 1, "aliases": dict(sorted(aliases.items()))}
