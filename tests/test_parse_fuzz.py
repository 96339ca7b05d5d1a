"""Every parser refuses bad text with a workbench error and nothing else.

parse_term, parse_sentence, PeriodicSet.parse, parse_report and
parse_algebra run on text built from the tokens of their grammars and on
arbitrary text; any exception that is not a CbswbError fails the test.
parse_algebra also gets a list of malformed documents, one per check it
makes.  Hypothesis runs derandomized with no example database.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbswb.algebra import parse_algebra, parse_sentence, parse_term
from cbswb.errors import CbswbError, FormatError, ValidationError
from cbswb.pset import PeriodicSet
from cbswb.report import parse_report

TOKENS = ["(", ")", "{", "}", "[", "]", ",", ";", ":", "=", "=>", "&", " ", '"', "-", ".",
          "0", "1", "7", "x", "y", "f", "c", "+", "prefix=", "period=", "residues=",
          "name", "size", "operations", "arity", "table", "schema", "cbswb-report/1",
          "true", "null"]

# set literals with stray blanks and commas between the digits
naturals = st.text("017 ,", max_size=8)
literals = naturals.map("{{{}}}".format) | st.tuples(st.text("01", max_size=4), naturals, naturals).map(
    lambda parts: "prefix={};period={};residues={{{}}}".format(*parts))
text = st.lists(st.sampled_from(TOKENS), max_size=24).map("".join) | literals | st.text(max_size=24)

PARSERS = [
    parse_term,
    lambda t: parse_term(t, [("f", 2), ("c", 0)]),
    parse_sentence,
    PeriodicSet.parse,
    parse_report,
    parse_algebra,
]


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(text)
def test_parsers_raise_only_workbench_errors(t):
    for parse in PARSERS:
        try:
            parse(t)
        except CbswbError:
            pass


def op(arity, table, name="f"):
    return {"name": name, "arity": arity, "table": table}


def doc(size=2, ops=None):
    return json.dumps({"name": "a", "size": size, "operations": ops or []})


MALFORMED = {
    "truncated": ("{", FormatError),
    "array": ("[1, 2]", FormatError),
    "long-integer": ("1" * 5000, FormatError),  # over the integer-literal digit limit
    "deep-array": ("[" * 100000, FormatError),  # nests deeper than the decoder recurses
    "not-text": (b"\xff\xfe{", FormatError),  # not text in any JSON encoding
    "no-name": ('{"size": 2, "operations": []}', FormatError),
    "no-size": ('{"name": "a", "operations": []}', FormatError),
    "no-operations": ('{"name": "a", "size": 2}', FormatError),
    "size-string": (doc(size="2"), FormatError),
    "size-bool": (doc(size=True), FormatError),
    "size-zero": (doc(size=0), ValidationError),
    "empty-name": (json.dumps({"name": "", "size": 1, "operations": []}), ValidationError),
    "operation-list": (doc(ops=[[0, 1]]), FormatError),
    "no-table": (doc(ops=[{"name": "f", "arity": 1}]), FormatError),
    "negative-arity": (doc(ops=[op(-1, [0])]), FormatError),
    "constant-pair": (doc(ops=[op(0, [0, 1])]), FormatError),
    "ragged-rows": (doc(ops=[op(2, [[0, 1], [1]])]), ValidationError),
    "nested-ternary": (doc(ops=[op(3, [[0, 1], [1, 0]])]), FormatError),
    "short-table": (doc(ops=[op(1, [0])]), ValidationError),
    "huge-arity": (doc(size=3, ops=[op(10 ** 4, [0])]), ValidationError),  # 3^10000 has 4,772 digits
    "huger-arity": (doc(ops=[op(10 ** 6, [0])]), ValidationError),
    "entry-range": (doc(ops=[op(1, [0, 2])]), ValidationError),
    "entry-object": (doc(ops=[op(1, [0, {}])]), ValidationError),
    "duplicate-name": (doc(ops=[op(0, 0), op(0, 1)]), ValidationError),
}


@pytest.mark.parametrize("text,error", list(MALFORMED.values()), ids=list(MALFORMED))
def test_parse_algebra_refuses_malformed_documents(text, error):
    with pytest.raises(error):
        parse_algebra(text)
