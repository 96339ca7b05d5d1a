"""Every budget refusal: one error type, one message shape, exit status 2.

Each bounded loop of the workbench compares its count with its cap and, once
over, raises errors.over_budget(stage, what, count, cap, unit).  The table
below reaches each of the nine, through the library and through the CLI.
"""

import ast
import json
import os
import re

import pytest

from cbswb import cbs, cli
from cbswb.algebra import (FiniteAlgebra, Operation, iso_search, parse_sentence, power_algebra,
                           render_algebra, satisfies)
from cbswb.cbs import cbs_complete_check
from cbswb.congruence import all_congruences
from cbswb.corpus import corpus_algebra
from cbswb.errors import BudgetError
from cbswb.omega import QuasiCyclic, check_truncation, omega_cbs_run
from cbswb.pset import PeriodicSet

SHAPE = re.compile(r"^[^:]+: .+ reached \d+, over the \d+-[a-z]+ budget$")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "cbswb")
Z2, Z4 = "corpus/z2.json", "corpus/z4.json"


def _z2_4():
    return power_algebra(corpus_algebra("z2"), 4)


def _id8():
    return FiniteAlgebra("id8", 8, [Operation("id", 1, tuple(range(8)))])


# (id, library call, CLI argv, the message); an argv entry that builds an
# algebra is written to a file first
SITES = [
    ("term evaluation",
     lambda: satisfies(corpus_algebra("z4"), [parse_sentence("(+ x y) = (+ y x)")], budget=10),
     ("presheaf-check", Z4, "--kind", "rel", "--sentence", "(+ x y) = (+ y x)",
      "--eval-budget", "10"),
     "term evaluation: assignments reached 16, over the 10-assignment budget"),
    ("isomorphism search carrier",
     lambda: iso_search(_z2_4(), _z2_4()),
     ("iso", _z2_4, _z2_4),
     "isomorphism search: carrier reached 16, over the 10-element budget"),
    ("congruence enumeration carrier",
     lambda: all_congruences(_z2_4()),
     ("con", _z2_4),
     "congruence enumeration: carrier reached 16, over the 8-element budget"),
    ("congruence enumeration members",
     lambda: all_congruences(_id8()),
     ("con", _id8),
     "congruence enumeration: |Con(A)| reached 1025, over the 1024-member budget"),
    ("omega run indices",
     lambda: omega_cbs_run(corpus_algebra("z2"), 1, PeriodicSet.from_finite([0]), indices=1025),
     ("omega-demo", "--base", Z2, "--shift", "1", "--zeta", "{0}", "--indices", "1025"),
     "omega run: indices reached 1025, over the 1024-index budget"),
    ("truncation",
     lambda: check_truncation(1, 65),
     ("omega-demo", "--base", Z2, "--shift", "1", "--zeta", "{0}", "--truncate", "65"),
     "truncation: m reached 65, over the 64-coordinate budget"),
    ("quasi-cyclic carrier",
     lambda: QuasiCyclic(3).truncation(7),
     ("quasicyclic", "3", "0", "7"),
     "quasi-cyclic truncation: carrier reached 2187, over the 1024-element budget"),
    ("periodic set",
     lambda: PeriodicSet.parse("prefix=;period=1000000000;residues={}"),
     ("omega-demo", "--base", Z2, "--shift", "2", "--zeta", "prefix=;period=1000000000;residues={}"),
     "periodic set construction: period reached 1000000000, over the 1048576-bit budget"),
    ("CBS sequence",
     lambda: cbs_complete_check(corpus_algebra("z4")),
     ("cbs-complete", Z4),
     "CBS sequence: indices reached 5, over the 4-index budget"),
]


@pytest.mark.parametrize("call, argv, message", [s[1:] for s in SITES], ids=[s[0] for s in SITES])
def test_each_budget_site_refuses_in_the_one_shape(call, argv, message, capsys, tmp_path,
                                                   monkeypatch):
    assert SHAPE.match(message)
    # theta = zeta = the diagonal stabilizes at index 2 and the loop runs on
    # to 8 indices, so no corpus input reaches the 32-index limit; 4 stops it
    # at the fifth
    monkeypatch.setattr(cbs, "DEFAULT_SEQUENCE_LIMIT", 4)
    with pytest.raises(BudgetError) as err:
        call()
    assert str(err.value) == message
    args = []
    for a in argv:
        if callable(a):
            A = a()
            path = tmp_path / f"{A.name}.json"
            path.write_text(json.dumps(render_algebra(A)))
            a = str(path)
        args.append(a)
    code = cli.main(args)
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_only_errors_constructs_budget_errors():
    # every refusal goes through errors.over_budget, so its shape is the one above
    for fn in sorted(os.listdir(SRC)):
        if not fn.endswith(".py") or fn == "errors.py":
            continue
        with open(os.path.join(SRC, fn)) as fh:
            tree = ast.parse(fh.read(), fn)
        calls = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and getattr(node.func, "id", getattr(node.func, "attr", None)) == "BudgetError"]
        assert calls == [], f"{fn} constructs BudgetError at lines {calls}"
