"""Every budget refusal: one error type, one message shape, exit status 2.

Each bounded loop of the workbench compares its count with its cap and, once
over, raises errors.over_budget(stage, what, count, cap, unit).  The table
below reaches each of the ten, through the library and through the CLI,
and a test counts the over_budget calls in src against it.
"""

import ast
import json
import os
import re
import time

import pytest

from cbswb import cli
from cbswb.algebra import (FiniteAlgebra, Operation, iso_search, parse_sentence, parse_term,
                           power_algebra, render_algebra, satisfies)
from cbswb.congruence import all_congruences
from cbswb.errors import BudgetError, ValidationError
from cbswb.omega import QuasiCyclic, check_truncation, omega_cbs_run, quasicyclic_suite
from cbswb.pset import PeriodicSet
from cbswb.structure import church_centers

from oracles import corpus_algebra

SHAPE = re.compile(r"^[^:]+: .+ reached \d+, over the \d+-[a-z]+ budget$")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "cbswb")
Z2, Z4 = "corpus/z2.json", "corpus/z4.json"
ITE = "(or (and z x) (and (not z) y))"


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
    ("church evaluations",
     lambda: church_centers(corpus_algebra("boole2"),
                            parse_term(ITE, corpus_algebra("boole2").signature()), 0, 1, budget=10),
     ("church", "corpus/boole2.json", "--term", ITE, "--zero", "0", "--one", "1",
      "--eval-budget", "10"),
     "church: evaluations reached 116, over the 10-evaluation budget"),
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
    ("quasi-cyclic level",
     lambda: quasicyclic_suite(2, 1, 11),
     ("quasicyclic", "2", "1", "11"),
     "quasi-cyclic suite: m reached 11, over the 10-level budget"),
]


@pytest.mark.parametrize("call, argv, message", [s[1:] for s in SITES], ids=[s[0] for s in SITES])
def test_each_budget_site_refuses_in_the_one_shape(call, argv, message, capsys, tmp_path):
    assert SHAPE.match(message)
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


def test_a_huge_prime_meets_the_carrier_cap_before_its_primality_test(capsys):
    # trial division of 2^61 - 1 would run for minutes; the carrier cap is
    # checked first, through the one helper truncation shares
    p = 2 ** 61 - 1
    message = (f"quasi-cyclic truncation: carrier reached {p}, "
               "over the 1024-element budget")
    start = time.perf_counter()
    with pytest.raises(BudgetError) as err:
        quasicyclic_suite(p, 0, 1)
    assert str(err.value) == message
    code = cli.main(["quasicyclic", str(p), "0", "1"])
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_the_quasicyclic_constructor_meets_the_carrier_cap_before_its_primality_test():
    # a prime over the cap could only build the level-0 truncation, so the
    # constructor refuses it before trial division would run for minutes
    p = 2 ** 61 - 1
    start = time.perf_counter()
    with pytest.raises(BudgetError) as err:
        QuasiCyclic(p)
    assert time.perf_counter() - start < 1.0
    assert str(err.value) == (f"quasi-cyclic truncation: carrier reached {p}, "
                              "over the 1024-element budget")
    with pytest.raises(BudgetError):
        QuasiCyclic(1031)  # the least prime over the cap
    assert QuasiCyclic(1021).prime == 1021  # the greatest prime within it
    for n in (1, 4):
        with pytest.raises(ValidationError, match=f"^{n} is not prime$"):
            QuasiCyclic(n)


def _calls(name):
    """(module, line) of every call of name in src outside errors.py."""
    out = []
    for fn in sorted(os.listdir(SRC)):
        if not fn.endswith(".py") or fn == "errors.py":
            continue
        with open(os.path.join(SRC, fn)) as fh:
            tree = ast.parse(fh.read(), fn)
        out += [(fn, node.lineno) for node in ast.walk(tree) if isinstance(node, ast.Call)
                and getattr(node.func, "id", getattr(node.func, "attr", None)) == name]
    return out


def test_only_errors_constructs_budget_errors():
    # every refusal goes through errors.over_budget, so its shape is the one above
    assert _calls("BudgetError") == []


def test_the_table_lists_every_budget_site():
    # a site added or removed in src must add or remove its row above
    assert len(_calls("over_budget")) == len(SITES)
