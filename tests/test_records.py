"""The value records of the package: equal fields make equal, equally hashed
records, a frozen record refuses an attribute write, a record reprs as
Name(field=value, ...), and a validating constructor refuses bad fields with
its exact message."""

import pytest

from cbswb.algebra import Operation, parse_sentence, parse_term, quotient_algebra
from cbswb.cbs import OperatorKind
from cbswb.congruence import Congruence
from cbswb.errors import ValidationError
from cbswb.omega import AffineFamily, OmegaCongruence, QuasiCyclic, ShiftIso
from cbswb.pset import PeriodicSet

from oracles import corpus_algebra

N = PeriodicSet.naturals()


def _records():
    """One of each hashable record, with the name of one of its fields."""
    z4 = corpus_algebra("z4")
    theta = Congruence.from_blocks(z4, [[0, 2], [1, 3]])
    return [
        (Operation("+", 2, (0, 1, 1, 0)), "name"),
        (parse_term("(+ x (- y))"), "head"),
        (parse_sentence("x = y => (+ x z) = (+ y z)"), "lhs"),
        (OperatorKind("fc"), "selector"),
        (OperatorKind("rel", (parse_sentence("(+ x y) = (+ y x)"),), budget=7), "sentences"),
        (quotient_algebra(z4, theta), "algebra"),
        (OmegaCongruence(z4, PeriodicSet.from_finite([0, 2])), "coords"),
        (ShiftIso(2), "k"),
        (AffineFamily(N, 1, PeriodicSet.block(0, 1)), "fixed"),
        (QuasiCyclic(3), "prime"),
    ]


def test_equal_fields_make_equal_records_with_equal_hashes():
    for (a, _), (b, _) in zip(_records(), _records()):
        assert a is not b
        assert a == b and hash(a) == hash(b), a
    assert Operation("+", 2, (0, 1, 1, 0)) != Operation("+", 2, (0, 1, 1, 1))
    assert OperatorKind("fc") != OperatorKind("con")
    same = (parse_sentence("x = x"),)
    assert OperatorKind("rel", same, budget=1) != OperatorKind("rel", same)


def test_frozen_records_refuse_an_attribute_write():
    for record, name in _records():
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            record.extra = 1


def test_records_repr_their_fields_by_name():
    assert repr(Operation("c", 0, (1,))) == "Operation(name='c', arity=0, table=(1,))"
    assert repr(parse_term("(- x)")) == (
        "Term(head='-', args=(Term(head='x', args=(), is_var=True),), is_var=False)")
    assert repr(OperatorKind("zcon")) == (
        "OperatorKind(selector='zcon', sentences=(), budget=10000000)")
    assert repr(ShiftIso(3)) == "ShiftIso(k=3)"
    assert repr(QuasiCyclic(5)) == "QuasiCyclic(prime=5)"


@pytest.mark.parametrize("build, message", [
    (lambda: OperatorKind("bad"), "unknown operator selector 'bad'"),
    (lambda: OperatorKind("fc", (parse_sentence("x = x"),)),
     "only the relative operator takes sentences"),
    (lambda: OperatorKind("rel"), "relative operator needs at least one sentence"),
    (lambda: ShiftIso(0), "shift amount must be at least 1"),
    (lambda: AffineFamily(N, 0, N), "shift amount must be at least 1"),
    (lambda: QuasiCyclic(4), "4 is not prime"),
])
def test_validating_records_refuse_with_their_messages(build, message):
    with pytest.raises(ValidationError) as info:
        build()
    assert str(info.value) == message
