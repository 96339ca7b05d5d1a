"""Report container with stable text and schema-versioned JSON forms.

Report bodies are JSON-native data (lists, never tuples; string keys)
and are kept as given, so the machine-readable form round-trips exactly
and the text form is byte-identical across runs for identical inputs.
Timing is attached only on request to keep the default output diffable.
"""

import json
import math
from json.encoder import encode_basestring_ascii as _string
from typing import Optional

from .errors import FormatError

SCHEMA = "cbswb-report/1"


class Report:
    def __init__(self, verb: str, status: str, body: dict, timing: Optional[dict] = None):
        if status not in ("pass", "refuted"):
            raise FormatError(f"unknown report status {status!r}")
        self.verb = verb
        self.status = status
        self.body = body
        self.timing = timing

    def __eq__(self, other):
        if not isinstance(other, Report):
            return NotImplemented
        return (
            self.verb == other.verb
            and self.status == other.status
            and self.body == other.body
            and self.timing == other.timing
        )

    def __repr__(self):
        return f"Report({self.verb!r}, {self.status!r}, {len(self.body)} keys)"

    def to_document(self) -> dict:
        doc = {"schema": SCHEMA, "verb": self.verb, "status": self.status, "body": self.body}
        if self.timing is not None:
            doc["timing"] = self.timing
        return doc


def _scalar(value) -> str:
    if value is None:
        return "none"
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


_NESTED = {list, dict}


def _row(values) -> str:
    return "[" + ", ".join(map(_scalar, values)) + "]"


def _text(out: list, label, value, pad: str) -> None:
    """Append the lines of one labelled value, indented by pad, to out.

    A list of scalars, or of scalar lists, goes on one line when that fits
    in 72 columns.  Each item takes two columns at least (its ", "), so a
    list of more than 36 items is not tried."""
    head = f"{pad}{label}:"
    if isinstance(value, dict):
        out.append(head if value else head + " {}")
        for k in value:
            _text(out, k, value[k], pad + "  ")
    elif isinstance(value, list):
        kinds = set(map(type, value))
        flat = kinds.isdisjoint(_NESTED)
        if len(value) <= 36 and (flat or kinds == {list} and all(
                _NESTED.isdisjoint(map(type, v)) for v in value)):
            line = _row(value) if flat else "[" + ", ".join(map(_row, value)) + "]"
            if len(line) <= 72:
                out.append(f"{head} {line}")
                return
        out.append(head)
        pad += "  "
        if flat:
            out += [f"{pad}[{i}]: {_scalar(v)}" for i, v in enumerate(value)]
        else:
            for i, v in enumerate(value):
                _text(out, f"[{i}]", v, pad)
    else:
        out.append(f"{head} {_scalar(value)}")


_BOOLS = {True: "true", False: "false"}
_TEXTS = {str, type(None)}


def _json(value, pad: str) -> str:
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        sep = ",\n" + inner
        return "{\n" + inner + sep.join(
            [_string(k) + ": " + (_string(v) if type(v) is str else _json(v, inner))
             for k, v in sorted(value.items())]
        ) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad + "  "
        sep = ",\n" + inner
        kinds = set(map(type, value))
        if kinds == {int}:
            body = sep.join(map(int.__repr__, value))
        elif kinds == {bool}:
            body = sep.join(map(_BOOLS.__getitem__, value))
        elif kinds <= _TEXTS:
            body = sep.join(["null" if v is None else _string(v) for v in value])
        else:
            body = sep.join([_json(v, inner) for v in value])
        return "[\n" + inner + body + "\n" + pad + "]"
    if isinstance(value, str):
        return _string(value)
    if value is None:
        return "null"
    if value is True or value is False:
        return _BOOLS[value]
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        # as the stdlib writes them, with allow_nan
        if value != value:
            return "NaN"
        if value == math.inf:
            return "Infinity"
        if value == -math.inf:
            return "-Infinity"
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def json_text(doc) -> str:
    """The stdlib's JSON for doc with keys sorted and a two-space indent,
    byte for byte, for JSON-native documents (string keys).  The stdlib's C
    encoder cannot indent, so there each cell is one step of a Python
    generator; here a list of ints, of bools or of strings and nulls is one
    join, and a dict writes its string values inline."""
    return _json(doc, "")


def render_report(r: Report, format: str = "text") -> str:
    if format == "json":
        return json_text(r.to_document()) + "\n"
    if format != "text":
        raise FormatError(f"unknown report format {format!r}")
    out = [SCHEMA, f"verb: {r.verb}", f"status: {r.status}"]
    for key in r.body:
        _text(out, key, r.body[key], "")
    if r.timing is not None:
        _text(out, "timing", r.timing, "")
    return "\n".join(out) + "\n"


def parse_report(text: str) -> Report:
    """Inverse of the JSON rendering."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:
        raise FormatError(f"report is not valid JSON: {e}")
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        raise FormatError(f"expected a {SCHEMA} document")
    for field in ("verb", "status", "body"):
        if field not in doc:
            raise FormatError(f"report misses field {field!r}")
    if not isinstance(doc["body"], dict):
        raise FormatError("report body must be an object")
    return Report(doc["verb"], doc["status"], doc["body"], doc.get("timing"))


def lattice_dot(L) -> str:
    """DOT rendering of a congruence lattice L: its members in canonical
    order, labelled by their blocks, and its covering edges only."""
    lines = ["digraph con {", "  rankdir=BT;"]
    for i, c in enumerate(L.elements):
        label = "|".join("".join(str(x) for x in b) for b in c.blocks)
        lines.append(f'  n{i} [label="{label}"];')
    for i, covers in enumerate(L.covers):
        lines += [f"  n{i} -> n{j};" for j in covers]
    lines.append("}")
    return "\n".join(lines) + "\n"
