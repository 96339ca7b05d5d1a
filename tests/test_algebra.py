import itertools
import json
import os
import random

import pytest

from cbswb.algebra import (
    MAX_TERM_DEPTH,
    FiniteAlgebra,
    Homomorphism,
    Operation,
    compile_term,
    direct_product,
    iso_search,
    parse_algebra,
    parse_sentence,
    parse_term,
    power_algebra,
    quotient_algebra,
    relabel,
    render_algebra,
    satisfies,
)
from cbswb.cbs import OperatorKind, presheaf_check
from cbswb.congruence import Congruence, all_congruences, least_rep, relative_congruences
from cbswb.errors import BudgetError, FormatError, ValidationError
from cbswb.omega import omega_cbs_run, quasicyclic_suite, truncate_validate
from cbswb.pset import PeriodicSet
from cbswb.report import json_text
from cbswb.structure import church_centers

from oracles import (CORPUS_DIR, CORPUS_NAMES, apply_raw, automorphisms, corpus_algebra, naive_eval,
                     naive_satisfies)

rng = random.Random(20260814)


def test_algebra_validation():
    with pytest.raises(ValidationError):
        FiniteAlgebra("", 2, [])
    with pytest.raises(ValidationError):
        FiniteAlgebra("a", 0, [])
    with pytest.raises(ValidationError):
        FiniteAlgebra("a", 2, [Operation("f", 1, (0,))])  # short table
    with pytest.raises(ValidationError):
        FiniteAlgebra("a", 2, [Operation("f", 1, (0, 2))])  # out of range
    with pytest.raises(ValidationError):
        FiniteAlgebra("a", 2, [Operation("f", 0, (0,)), Operation("f", 0, (1,))])


class Label(int):
    """An int subclass: the cell loop admits it, the exact-type check does not."""


def test_table_validation_names_the_first_bad_entry():
    # tables the exact-int fast path passes over, rejected by the cell loop
    # with the message naming the first bad entry
    bad = [
        (3, (0, True, 1), "True"),
        (3, (0, 1.0, 1), "1.0"),
        (3, (0, "1", 1), "'1'"),
        (3, (0, -1, 1), "-1"),
        (3, (0, 3, 1), "3"),
        (3, (Label(1), 3, -1), "3"),
        (5, (1, 2, 0, -2, 5), "-2"),
    ]
    for size, table, shown in bad:
        with pytest.raises(ValidationError) as err:
            FiniteAlgebra("a", size, [Operation("f", 1, table)])
        assert str(err.value) == f"operation 'f': table entry {shown} out of range 0..{size - 1}"
    for table in [(0, 1, 2), (Label(2), 0, 1), (2, Label(0), 1)]:
        A = FiniteAlgebra("a", 3, [Operation("f", 1, table)])
        assert tuple(A.ops[0].table) == table


def test_tables_of_any_sequence_type_give_one_algebra():
    # a list table once left the algebra unhashable and unequal to its tuple twin
    for size in (3, 300):
        cells = [(x + 1) % min(size, 256) for x in range(size)]
        algebras = [FiniteAlgebra("a", size, [Operation("f", 1, table)])
                    for table in (cells, tuple(cells), bytes(cells))]
        for A in algebras:
            assert A == algebras[0] and hash(A) == hash(algebras[0])
            assert A.same_tables(algebras[0])
            assert type(A.ops[0].table) is (bytes if size <= 256 else tuple)
            assert list(A.ops[0].table) == cells


def test_apply_uses_mixed_radix_encoding():
    z4 = corpus_algebra("z4")
    for a in range(4):
        for b in range(4):
            assert z4.apply("+", a, b) == (a + b) % 4
    with pytest.raises(ValidationError):
        z4.apply("+", 1)
    with pytest.raises(ValidationError):
        z4.apply("missing", 1, 2)


def test_parse_render_round_trip():
    # the corpus round trip follows from test_corpus_files_are_canonical
    with pytest.raises(FormatError):
        parse_algebra({"name": "x"})
    with pytest.raises(FormatError):
        parse_algebra([])


def test_corpus_files_are_canonical():
    # the committed files are the only corpus: each is named for its algebra
    # and holds exactly the text render_algebra writes for it
    files = sorted(fn[:-len(".json")] for fn in os.listdir(CORPUS_DIR) if fn.endswith(".json"))
    assert len(CORPUS_NAMES) == 11 and tuple(files) == CORPUS_NAMES
    for name in CORPUS_NAMES:
        with open(os.path.join(CORPUS_DIR, f"{name}.json")) as fh:
            text = fh.read()
        A = parse_algebra(json.loads(text))
        assert A.name == name
        assert text == json_text(render_algebra(A)) + "\n", name


def test_compile_term_against_naive_oracle():
    z4 = corpus_algebra("z4ring")
    t = parse_term("(add (mul x y) (neg x))", z4.signature())
    f = compile_term(z4, t, ("x", "y"))
    for x in range(4):
        for y in range(4):
            env = {"x": x, "y": y}
            assert f((x, y)) == naive_eval(z4, t, env)
    boole = corpus_algebra("boole2")
    t2 = parse_term("(or (and x (not y)) 0)", boole.signature())
    # values are read by position in the variable tuple, which may hold
    # names the term does not use
    f2 = compile_term(boole, t2, ("u", "y", "x"))
    for x in range(2):
        for y in range(2):
            env = {"x": x, "y": y}
            assert f2((1, y, x)) == naive_eval(boole, t2, env)
    t3 = parse_term("(f x y z)")
    maj = FiniteAlgebra("maj", 2, [Operation("f", 3, tuple(
        int(a + b + c >= 2) for a, b, c in itertools.product(range(2), repeat=3)))])
    f3 = compile_term(maj, t3, ("x", "y", "z"))
    for values in itertools.product(range(2), repeat=3):
        assert f3(values) == naive_eval(maj, t3, dict(zip("xyz", values)))


def test_compile_term_messages():
    z4 = corpus_algebra("z4")

    def message(text, variables=("x", "y")):
        with pytest.raises(ValidationError) as err:
            compile_term(z4, parse_term(text), variables)
        return str(err.value)

    assert message("(+ x z)") == "unbound variable 'z'"
    assert message("(nope x)") == "unknown operation 'nope' in algebra 'z4'"
    assert message("(+ x)") == "operation '+' has arity 2, got 1 arguments"
    # one walk, a node before its arguments and arguments left to right
    assert message("(+ z (nope x))") == "unbound variable 'z'"
    assert message("(+ (nope z) x)") == "unknown operation 'nope' in algebra 'z4'"
    assert message("(+ (+ z) x)") == "operation '+' has arity 2, got 1 arguments"
    assert message("(+ x (+ y))", ()) == "unbound variable 'x'"


def test_parse_term_errors():
    z4 = corpus_algebra("z4")
    with pytest.raises(FormatError):
        parse_term("", z4.signature())
    with pytest.raises(FormatError):
        parse_term("(+ x", z4.signature())
    with pytest.raises(FormatError):
        parse_term("(+ x y) z", z4.signature())
    with pytest.raises(FormatError):
        parse_term("+", z4.signature())  # binary op used as atom


def test_term_depth_limit():
    ring = corpus_algebra("z4ring")
    text = "(neg " * MAX_TERM_DEPTH + "x" + ")" * MAX_TERM_DEPTH
    t = parse_term(text, ring.signature())
    f = compile_term(ring, t, ("x",))
    for x in range(4):
        assert f((x,)) == naive_eval(ring, t, {"x": x})
    assert t.render() == text
    assert satisfies(ring, [parse_sentence(f"{text} = x", ring.signature())]) == (True, None)
    deeper = "(neg " + text + ")"
    for signature in (ring.signature(), None):
        with pytest.raises(FormatError, match=f"deeper than {MAX_TERM_DEPTH} levels"):
            parse_term(deeper, signature)


def test_satisfies_and_budget():
    z4 = corpus_algebra("z4")
    comm = parse_sentence("(+ x y) = (+ y x)", z4.signature())
    assoc = parse_sentence("(+ (+ x y) z) = (+ x (+ y z))", z4.signature())
    holds, witness = satisfies(z4, [comm, assoc])
    assert holds and witness is None
    # x + x = y + y fails on z4
    bad = parse_sentence("(+ x x) = (+ y y)", z4.signature())
    holds, witness = satisfies(z4, [bad])
    assert not holds
    assert witness["assignment"]
    # quasi-equation: cancellation holds in a group
    canc = parse_sentence("(+ x y) = (+ x z) => y = z", z4.signature())
    holds, _ = satisfies(z4, [canc])
    assert holds
    with pytest.raises(BudgetError):
        satisfies(z4, [assoc], budget=10)


def test_satisfies_term_check_messages_and_order():
    z4 = corpus_algebra("z4")

    def message(*texts, budget=10 ** 7):
        with pytest.raises(ValidationError) as err:
            satisfies(z4, [parse_sentence(t) for t in texts], budget=budget)
        return str(err.value)

    assert message("(nope x) = x") == "unknown operation 'nope' in algebra 'z4'"
    assert message("(+ x) = x") == "operation '+' has arity 2, got 1 arguments"
    # a node is checked before its arguments, and arguments left to right
    assert message("(+ (nope x)) = x") == "operation '+' has arity 2, got 1 arguments"
    assert message("(+ (+ x) (nope x)) = x") == "operation '+' has arity 2, got 1 arguments"
    # premises before the conclusion, and every term before the budget
    assert message("x = (+ x y z) => (nope y) = y") == "operation '+' has arity 2, got 3 arguments"
    assert message("(+ x y) = (+ y z) => (nope w) = y", budget=1) == \
        "unknown operation 'nope' in algebra 'z4'"
    # each sentence is checked when its turn comes: a failing first sentence
    # returns before the second is looked at
    bad = "(+ x x) = (+ y y)"
    witness = {"sentence": 0, "rendered": bad, "assignment": {"x": 0, "y": 1}}
    assert satisfies(z4, [parse_sentence(bad), parse_sentence("(nope x) = x")]) == (False, witness)
    assert message("x = x", "(nope x) = x") == "unknown operation 'nope' in algebra 'z4'"


def test_terms_are_evaluated_on_the_flat_tables(monkeypatch):
    """satisfies, relative_congruences and church_centers never look an
    operation up by name per cell: they run with apply refusing."""

    def refuse(self, name, *args):
        raise AssertionError(f"{self.name}.apply({name!r}) called")

    monkeypatch.setattr(FiniteAlgebra, "apply", refuse)
    for name in CORPUS_NAMES:
        A = corpus_algebra(name)
        # every operation with its arguments reversed, which fails for some
        for op, k in A.signature():
            names = [f"x{i}" for i in range(k)]
            lhs = f"({op} {' '.join(names)})" if k else op
            rhs = f"({op} {' '.join(reversed(names))})" if k else op
            sentences = [parse_sentence(f"{lhs} = {rhs}", A.signature())]
            assert satisfies(A, sentences) == naive_satisfies(A, sentences)
            assert [c.rep for c in relative_congruences(A, sentences)] == [
                c.rep for c in all_congruences(A)
                if naive_satisfies(quotient_algebra(A, c).algebra, sentences)[0]]
    b2 = corpus_algebra("boole2")
    b4 = direct_product(b2, b2)
    term = parse_term("(or (and z x) (and (not z) y))", b4.signature())
    assert church_centers(b4, term, 0, 3)["centers"] == [0, 1, 2, 3]


def test_homomorphism_checked_on_creation():
    z4 = corpus_algebra("z4")
    z2 = corpus_algebra("z2")
    h = Homomorphism(z4, z2, [0, 1, 0, 1])
    assert not h.is_bijective()
    assert Congruence(z4, least_rep(h.mapping)).to_blocks_list() == [[0, 2], [1, 3]]
    with pytest.raises(ValidationError):
        Homomorphism(z4, z2, [0, 0, 1, 1])  # not a homomorphism
    with pytest.raises(ValidationError):
        Homomorphism(z4, z2, [0, 1, 0])  # wrong length


def test_compose_and_inverse():
    z4 = corpus_algebra("z4")
    neg = Homomorphism(z4, z4, [0, 3, 2, 1])
    assert neg.is_bijective()
    assert neg.inverse().mapping == neg.mapping  # involution
    ident = neg.compose(neg)
    assert ident.mapping == (0, 1, 2, 3)
    z2 = corpus_algebra("z2")
    h = Homomorphism(z4, z2, [0, 1, 0, 1])
    assert h.compose(neg).mapping == (0, 1, 0, 1)
    with pytest.raises(ValidationError):
        h.inverse()


def test_direct_product_and_projections():
    z2 = corpus_algebra("z2")
    P = direct_product(z2, z2)
    assert P.size == 4
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    x, y = a * 2 + b, c * 2 + d
                    got = P.apply("+", x, y)
                    assert got == ((a + c) % 2) * 2 + (b + d) % 2
    # both coordinate projections are homomorphisms
    Homomorphism(P, z2, [0, 0, 1, 1])
    Homomorphism(P, z2, [0, 1, 0, 1])
    with pytest.raises(ValidationError):
        direct_product(z2, corpus_algebra("chain2"))
    # a built algebra keeps its signature test
    with pytest.raises(ValidationError, match="share a signature"):
        direct_product(P, power_algebra(corpus_algebra("chain2"), 2))


def test_power_matches_iterated_product():
    z2 = corpus_algebra("z2")
    P3 = power_algebra(z2, 3)
    assert P3.size == 8
    # coordinate 0 is most significant
    for x in range(8):
        for y in range(8):
            xs = [(x >> (2 - i)) & 1 for i in range(3)]
            ys = [(y >> (2 - i)) & 1 for i in range(3)]
            want = 0
            for a, b in zip(xs, ys):
                want = want * 2 + ((a + b) % 2)
            assert P3.apply("+", x, y) == want


def test_quotient_blocks_in_canonical_order():
    z4 = corpus_algebra("z4")
    theta = Congruence(z4, (0, 1, 0, 1))
    Q = quotient_algebra(z4, theta)
    assert Q.algebra.size == 2
    assert Q.projection.mapping == (0, 1, 0, 1)
    assert Q.algebra.same_tables(corpus_algebra("z2"))
    with pytest.raises(ValidationError):
        quotient_algebra(corpus_algebra("v4"), theta)
    # on a built algebra the projection check still rejects a partition that
    # is not a congruence: in z2^2, 0 ~ 1 forces 2 = 0 + 2 ~ 1 + 2 = 3
    z2_2 = power_algebra(corpus_algebra("z2"), 2)
    with pytest.raises(ValidationError, match="does not preserve"):
        quotient_algebra(z2_2, Congruence(z2_2, (0, 0, 2, 3)))


def brute_isos(A, B):
    if A.size != B.size or A.signature() != B.signature():
        return []
    found = []
    for perm in itertools.permutations(range(A.size)):
        ok = True
        for op in A.ops:
            opb = B.op(op.name)
            for args in itertools.product(range(A.size), repeat=op.arity):
                if perm[apply_raw(A, op, args)] != apply_raw(B, opb, [perm[a] for a in args]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            found.append(perm)
    return sorted(found)


def test_iso_search_matches_permutation_oracle():
    names = ["z2", "z3", "z4", "v4", "chain2", "boole2", "semilat2"]
    for na in names:
        for nb in names:
            A, B = corpus_algebra(na), corpus_algebra(nb)
            expected = brute_isos(A, B)
            first = iso_search(A, B)
            if first is None:
                assert expected == [], (na, nb)
                continue
            assert first.mapping == expected[0], (na, nb)
            # every isomorphism A -> B is the least one after an automorphism of A
            got = sorted(first.compose(g).mapping for g in automorphisms(A))
            assert got == expected, (na, nb)


def test_iso_search_least_map_and_budget():
    z4 = corpus_algebra("z4")
    v4 = corpus_algebra("v4")
    assert iso_search(z4, v4) is None
    assert iso_search(z4, z4).mapping == (0, 1, 2, 3)
    assert Homomorphism(z4, z4, [0, 3, 2, 1]).is_bijective()
    with pytest.raises(ValidationError):
        Homomorphism(z4, z4, [0, 2, 1, 3])
    big = power_algebra(corpus_algebra("z2"), 4)
    with pytest.raises(BudgetError):
        iso_search(big, big)
    with pytest.raises(BudgetError):
        automorphisms(big)
    assert iso_search(big, big, max_size=16)
    # the benchmark's refutations: same size and same element counts per operation
    z2, z4 = corpus_algebra("z2"), corpus_algebra("z4")
    v4_z4 = direct_product(v4, z4)
    z2_z4 = direct_product(z2, z4)
    assert iso_search(big, v4_z4, max_size=16) is None
    assert iso_search(power_algebra(z2, 3), z2_z4, max_size=16) is None


def test_iso_search_checks_every_argument_position():
    # two-valued tables give many elements the same label, so a search that
    # skipped argument tuples with the new element in some position would
    # return maps that are not isomorphisms
    local = random.Random(7)
    # on the first table, whose only automorphism is the identity, a search
    # that skips the tuple (0, 2) returns a map that is not one
    drawn = [(4, 2, (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0))]
    for _ in range(150):
        n, k = local.randint(3, 5), local.choice([2, 3])
        drawn.append((n, k, tuple(local.randrange(2) for _ in range(n ** k))))
    for n, k, table in drawn:
        A = FiniteAlgebra("a", n, [Operation("f", k, table)])
        for B in (A, relabel(A, local.sample(range(n), n))[0]):
            expected = []
            for perm in itertools.permutations(range(n)):
                try:
                    expected.append(Homomorphism(A, B, perm).mapping)
                except ValidationError:
                    pass
            # B is A or a copy of it, so an isomorphism exists
            first = iso_search(A, B)
            assert first.mapping == expected[0]
            if B is A:
                assert [h.mapping for h in automorphisms(A)] == expected
            else:
                assert sorted(first.compose(g).mapping for g in automorphisms(A)) == expected


def test_automorphism_counts():
    # z4: x -> x and x -> 3x; v4: S3 permutes the involutions; z3: id and inversion
    assert len(automorphisms(corpus_algebra("z4"))) == 2
    assert len(automorphisms(corpus_algebra("v4"))) == 6
    assert len(automorphisms(corpus_algebra("z3"))) == 2
    assert len(automorphisms(corpus_algebra("chain3"))) == 1
    # GL(3,2), GL(2,3), and the coordinate swap of the 3-chain squared
    assert len(automorphisms(power_algebra(corpus_algebra("z2"), 3))) == 168
    assert len(automorphisms(power_algebra(corpus_algebra("z3"), 2))) == 48
    assert len(automorphisms(power_algebra(corpus_algebra("chain3"), 2))) == 2


def test_relabel_gives_isomorphic_copy():
    for name in ("z4", "v4", "lat22"):
        A = corpus_algebra(name)
        perm = list(range(A.size))
        rng.shuffle(perm)
        B, iso = relabel(A, perm)
        assert iso.source == A and iso.target == B
        assert iso.is_bijective()
        assert B.size == A.size
    with pytest.raises(ValidationError):
        relabel(corpus_algebra("z4"), [0, 0, 1, 2])
    # a built algebra keeps the permutation test, and the iso check rejects
    # the bools that pass it
    z2_2 = power_algebra(corpus_algebra("z2"), 2)
    with pytest.raises(ValidationError, match="permutation"):
        relabel(z2_2, [0, 0, 1, 2])
    with pytest.raises(ValidationError, match="mapping value"):
        relabel(power_algebra(corpus_algebra("z2"), 1), [True, False])


def test_constructors_and_truncations_do_not_apply_cell_by_cell(monkeypatch):
    z4, v4, lat = corpus_algebra("z4"), corpus_algebra("v4"), corpus_algebra("lat22")
    theta = all_congruences(lat).elements[1]
    run = omega_cbs_run(corpus_algebra("z2"), 2, PeriodicSet.from_finite([0]))

    def build():
        return (
            power_algebra(v4, 3),
            direct_product(z4, v4),
            quotient_algebra(lat, theta).algebra,
            relabel(z4, [2, 0, 3, 1])[0],
            truncate_validate(run, 8),
            quasicyclic_suite(2, 2, 6),
        )

    usual = build()
    assert usual[4]["ok"] and usual[4]["materialized"] and usual[5]["ok"]

    def refuse(self, name, *args):
        raise AssertionError(f"per-cell apply({name!r}) in a flat-table kernel")

    monkeypatch.setattr(FiniteAlgebra, "apply", refuse)
    assert build() == usual


def test_iso_search_does_not_apply_cell_by_cell(monkeypatch):
    z4, v4, ring = corpus_algebra("z4"), corpus_algebra("v4"), corpus_algebra("z4ring")
    z4_copy = relabel(z4, [2, 0, 3, 1])[0]
    ring_copy = relabel(ring, [1, 3, 0, 2])[0]
    median = FiniteAlgebra("median3", 3, [Operation(
        "m", 3, tuple(sorted(args)[1] for args in itertools.product(range(3), repeat=3)))])

    def search():
        return (
            iso_search(z4, z4_copy),
            iso_search(ring, ring_copy),
            iso_search(z4, v4),
            automorphisms(z4),
            [Homomorphism(z4, z4_copy, [2, 0, 3, 1])],
            automorphisms(ring),
            automorphisms(v4),
            automorphisms(corpus_algebra("lat22")),
            automorphisms(median),
            presheaf_check(v4, OperatorKind("fc")),
        )

    usual = search()
    assert [h is not None for h in usual[:3]] == [True, True, False]
    assert [len(r) for r in usual[3:9]] == [2, 1, 1, 6, 2, 2]

    def refuse(self, name, *args):
        raise AssertionError(f"per-cell apply({name!r}) in the isomorphism search")

    monkeypatch.setattr(FiniteAlgebra, "apply", refuse)
    assert search() == usual
