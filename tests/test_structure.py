import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbswb import structure
from cbswb.algebra import FiniteAlgebra, Operation, direct_product, parse_term, power_algebra
from cbswb.congruence import Congruence, all_congruences, principal_congruence
from cbswb.errors import BudgetError, ValidationError
from cbswb.structure import (
    bfc_check,
    center_of_lattice,
    check_factor_pair,
    church_centers,
    decomposition_witness,
    factor_congruences,
    z_con_report,
)

from oracles import church_failure, corpus_algebra


def reps(congruences):
    return {c.rep for c in congruences}


def test_fc_z4_is_trivial():
    z4 = corpus_algebra("z4")
    E = all_congruences(z4).elements
    assert len(E) == 3
    assert reps(E[i] for i in factor_congruences(z4)) == {(0, 1, 2, 3), (0, 0, 0, 0)}


def test_fc_v4_is_everything_but_not_boolean():
    v4 = corpus_algebra("v4")
    fc = factor_congruences(v4)
    assert len(fc) == 5  # the whole diamond
    # each atom has the other two as complements
    atoms = [i for i in fc if all_congruences(v4).elements[i].nblocks == 2]
    assert len(atoms) == 3
    for i in atoms:
        assert len(fc[i]) == 2
    verdict = bfc_check(v4)
    assert verdict["ok"] is False
    assert verdict["reason"] == "complement_not_unique"
    assert len(verdict["complements"]) == 2  # the emitted counterexample pair
    # on a bare 6-set the factor congruences are the partitions into blocks of
    # one size, so the meet of two 3-block ones need not be one
    verdict = bfc_check(FiniteAlgebra("set6", 6, []))
    assert verdict["ok"] is False
    assert verdict["reason"] == "meet_not_closed"
    assert verdict["pair"] == [[[0, 1], [2, 3], [4, 5]], [[0, 1], [2, 4], [3, 5]]]
    assert verdict["meet"] == [[0, 1], [2], [3], [4], [5]]


def test_factor_pair_refutation_ordering():
    chain3 = corpus_algebra("chain3")
    t1 = principal_congruence(chain3, 0, 1)
    t2 = principal_congruence(chain3, 1, 2)
    # meet failure reported first
    same = check_factor_pair(chain3, t1, t1)
    assert same["reason"] == "meet_not_diagonal" and same["witness"] == [0, 1]
    # join failure next
    z4 = corpus_algebra("z4")
    d = Congruence.diagonal(z4)
    small = check_factor_pair(z4, d, principal_congruence(z4, 0, 2))
    assert small["reason"] == "join_not_total"
    # permutability failure last: join is total but the product misses a pair
    verdict = check_factor_pair(chain3, t1, t2)
    assert verdict["reason"] == "not_permutable"
    assert verdict["witness"] == [2, 0]
    other = check_factor_pair(chain3, t2, t1)
    assert other["reason"] == "not_permutable"
    assert other["witness"] == [0, 2]
    # a congruence of another algebra, here one of the same size, is refused first
    v4_diagonal = Congruence.diagonal(corpus_algebra("v4"))
    for pair in ((v4_diagonal, d), (d, v4_diagonal)):
        with pytest.raises(ValidationError,
                           match="^factor pair congruences must belong to the algebra$"):
            check_factor_pair(z4, *pair)


def test_chain3_has_no_proper_factor_pair():
    chain3 = corpus_algebra("chain3")
    E = all_congruences(chain3).elements
    assert reps(E[i] for i in factor_congruences(chain3)) == {(0, 1, 2), (0, 0, 0)}


def test_lat22_has_boolean_fc_with_verified_decompositions():
    lat = corpus_algebra("lat22")
    fc = factor_congruences(lat)
    assert len(fc) == 4
    verdict = bfc_check(lat)
    assert verdict["ok"] is True
    E = all_congruences(lat).elements
    for i, js in fc.items():
        for j in js:
            wit = decomposition_witness(lat, E[i], E[j])
            assert wit["iso"].is_bijective()
            assert wit["product"].size == lat.size


def test_decomposition_witness_pairing_map():
    v4 = corpus_algebra("v4")
    t1 = principal_congruence(v4, 0, 1)
    t2 = principal_congruence(v4, 0, 2)
    wit = decomposition_witness(v4, t1, t2)
    # a -> (a/t1) * |A/t2| + (a/t2)
    q1, q2 = wit["left"].projection.mapping, wit["right"].projection.mapping
    assert wit["iso"].mapping == tuple(q1[a] * 2 + q2[a] for a in range(4))
    with pytest.raises(ValidationError):
        decomposition_witness(v4, t1, t1)


def test_center_of_con_v4_is_trivial():
    v4 = corpus_algebra("v4")
    L = all_congruences(v4)
    centre = center_of_lattice(L)
    assert centre.central == (L.bottom, L.top)
    assert centre.center_boolean
    # the diamond's atoms fail neutrality, with a named distributivity failure
    assert len(centre.failures) == 3


def test_z_con_report_fields():
    v4 = corpus_algebra("v4")
    rep = z_con_report(v4)
    assert rep["algebra"] == "v4"
    assert len(rep["center"]) == 2
    assert rep["center_subset_of_fc"] is True
    assert rep["center_equals_fc"] is False  # FC is all five, centre is two
    assert rep["boolean_candidate"] is True
    lat = corpus_algebra("lat22")
    rep2 = z_con_report(lat)
    assert len(rep2["center"]) == 4
    assert rep2["center_equals_fc"] is True


def test_church_centers_on_boolean_algebras():
    b2 = corpus_algebra("boole2")
    term = parse_term("(or (and z x) (and (not z) y))", b2.signature())
    rep = church_centers(b2, term, 0, 1)
    assert rep["centers"] == [0, 1]
    assert rep["factor_cross_check_ok"] is True
    b4 = direct_product(b2, b2, name="boole4")
    term4 = parse_term("(or (and z x) (and (not z) y))", b4.signature())
    rep4 = church_centers(b4, term4, 0, 3)
    assert rep4["centers"] == [0, 1, 2, 3]
    assert rep4["factor_cross_check_ok"] is True
    # complement table really is the Boolean complement
    assert rep4["boolean_ops"]["not"][str(1)] == 2


def test_church_centers_rejects_non_conditionals():
    b2 = corpus_algebra("boole2")
    bad = parse_term("(and z x)", b2.signature())
    with pytest.raises(ValidationError):
        church_centers(b2, bad, 0, 1)
    with pytest.raises(ValidationError):
        church_centers(b2, parse_term("(or (and z x) (and (not z) w))", b2.signature()), 0, 1)
    term = parse_term("(or (and z x) (and (not z) y))", b2.signature())
    with pytest.raises(ValidationError):
        church_centers(b2, term, 0, 5)


def test_church_term_check_messages_and_order():
    b2 = corpus_algebra("boole2")

    def message(text, zero=0, one=1, budget=10 ** 7):
        with pytest.raises(ValidationError) as err:
            church_centers(b2, parse_term(text), zero, one, budget=budget)
        return str(err.value)

    good = "(or (and z x) (and (not z) y))"
    assert message("(or (and z x) (and (not z) w))") == \
        "conditional term must use variables z, x, y; found ['w']"
    assert message(good, 0, 5) == "constant 5 out of range"
    assert message(good, -1, 1) == "constant -1 out of range"
    # operations and arities over the whole term, then variables, then
    # constants, then the budget
    assert message("(or (and z w) (nope x))") == "unknown operation 'nope' in algebra 'boole2'"
    assert message("(or w (not z x))") == "operation 'not' has arity 1, got 2 arguments"
    assert message("(or (and z x) (and (not z) w))", 0, 5) == \
        "conditional term must use variables z, x, y; found ['w']"
    assert message(good, 0, 5, budget=0) == "constant 5 out of range"
    assert message("(or (and z x) (and (not v) w))", budget=0) == \
        "conditional term must use variables z, x, y; found ['v', 'w']"


@st.composite
def conditional_algebras(draw):
    """(A, t, one): t is a conditional for the constants 0 and one of A, and
    A has up to two more operations of arity 0 to 2.

    Either the four-element Boolean algebra, where every element passes
    laws 1-3 and the drawn operations can fail law 4; or 2 to 4 elements
    with a ternary t, t(1,x,y) = x and t(0,x,y) = y, where each t(e,..) row
    past 0 and 1 is a drawn table, picks x or y cell by cell, or is x or y
    throughout, so laws 1-3 can fail."""
    if draw(st.booleans()):
        b2 = corpus_algebra("boole2")
        n, one, ops = 4, 3, list(direct_product(b2, b2).ops)
        text = "(or (and z x) (and (not z) y))"
    else:
        n, one, text = draw(st.integers(2, 4)), 1, "(t z x y)"
        rows = {0: "y", 1: "x"}
        for e in range(2, n):
            rows[e] = draw(st.sampled_from(["table", "cells", "x", "y"]))
        t = []
        for e, x, y in itertools.product(range(n), repeat=3):
            row = rows[e]
            if row == "cells":
                row = "x" if draw(st.booleans()) else "y"
            t.append(x if row == "x" else y if row == "y" else draw(st.integers(0, n - 1)))
        ops = [Operation("t", 3, tuple(t))]
    cell = st.integers(0, n - 1)
    for i, k in enumerate(draw(st.lists(st.integers(0, 2), max_size=2))):
        ops.append(Operation(f"g{i}", k, tuple(draw(cell) for _ in range(n ** k))))
    A = FiniteAlgebra("c", n, ops)
    return A, parse_term(text, A.signature()), one


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(conditional_algebras())
def test_church_laws_read_off_the_table_match_the_term_by_term_oracle(case):
    A, term, one = case
    report = church_centers(A, term, 0, one)
    expected = {e: church_failure(A, term, e, 0, one) for e in range(A.size)}
    assert report["centers"] == [e for e, f in expected.items() if f is None]
    assert report["failures"] == {str(e): f for e, f in expected.items() if f is not None}


def test_church_refuses_over_the_evaluation_budget_before_evaluating(monkeypatch):
    real = structure.compile_term
    compiled_terms = []

    def compiled(*args):
        # the term is compiled, and so checked, before the budget; it is
        # never evaluated
        compiled_terms.append(real(*args))

        def refuse(values):
            raise AssertionError("term evaluated past the budget")

        return refuse

    monkeypatch.setattr(structure, "compile_term", compiled)
    text = "(or (and z x) (and (not z) y))"
    # 16^3 + 16 (2 16^3 + 2 16^4 + 16^2 + 2) = 2,236,448 fits the default budget,
    # and 32 elements take 69,271,616
    b16 = power_algebra(corpus_algebra("boole2"), 4)
    with pytest.raises(BudgetError, match="^church: evaluations reached 2236448, "
                                          "over the 2236447-evaluation budget$"):
        church_centers(b16, parse_term(text, b16.signature()), 0, 15, budget=2236447)
    b32 = power_algebra(corpus_algebra("boole2"), 5)
    with pytest.raises(BudgetError, match="^church: evaluations reached 69271616, "
                                          "over the 10000000-evaluation budget$"):
        church_centers(b32, parse_term(text, b32.signature()), 0, 31)
    assert len(compiled_terms) == 2


def test_one_element_algebra_degenerates_cleanly():
    one = corpus_algebra("one")
    assert len(factor_congruences(one)) == 1  # diagonal = total
    assert bfc_check(one)["ok"] is True
