import itertools
import random

import pytest

from cbswb.algebra import (
    Homomorphism,
    direct_product,
    parse_sentence,
    power_algebra,
    quotient_algebra,
)
from cbswb.congruence import (
    Congruence,
    _translation_columns,
    all_congruences,
    compatibility_witness,
    compose,
    congruence_join,
    congruence_meet,
    generated_congruence,
    principal_congruence,
    quotient_lift,
    relative_congruences,
    transport,
)
from cbswb.errors import BudgetError, ValidationError

from oracles import (CORPUS_NAMES, all_homs, apply_raw, automorphisms, brute_congruences,
                     brute_principal, corpus_algebra, join_closure, refines, rep_leq)

rng = random.Random(73)

SMALL = [n for n in CORPUS_NAMES if corpus_algebra(n).size <= 5]


def test_small_corpus_covers_required_algebras():
    assert len(SMALL) >= 10
    for required in ("z2", "z3", "z4", "v4", "chain2", "chain3", "lat22",
                     "boole2", "semilat2", "z4ring"):
        assert required in SMALL


def test_congruence_canonical_form_validation():
    z4 = corpus_algebra("z4")
    z2 = corpus_algebra("z2")
    length = "rep array length differs from carrier size"
    form = "rep array is not in least-representative form"
    for A, rep, message in ((z4, (0, 1, 2), length), (z2, (0, 0, 1), length),
                            (z4, (1, 1, 2, 3), form),  # rep[0] > 0
                            (z2, (1, 1), form),
                            (z4, (0, 0, 1, 1), form)):  # value 1 is not a block root
        with pytest.raises(ValidationError, match=message):
            Congruence(A, rep)
    # form-only validation: (0,1,2,1) is a valid rep array even though the
    # partition 0|13|2 is not compatible with + on z4
    c = Congruence(z4, (0, 1, 2, 1))
    assert c.to_blocks_list() == [[0], [1, 3], [2]]
    with pytest.raises(ValidationError):
        Congruence.from_blocks(z4, [[0], [1, 3], [2]])


def test_from_blocks_partition_validation():
    z4 = corpus_algebra("z4")
    with pytest.raises(ValidationError):
        Congruence.from_blocks(z4, [[0, 1], [1, 2, 3]])  # repeated element
    with pytest.raises(ValidationError):
        Congruence.from_blocks(z4, [[0, 1]])  # misses elements
    with pytest.raises(ValidationError):
        Congruence.from_blocks(z4, [[0, 1], [], [2, 3]])  # empty block
    ok = Congruence.from_blocks(z4, [[1, 3], [0, 2]])
    assert ok.rep == (0, 1, 0, 1)


@pytest.mark.parametrize("name, rep, witness", [
    # first clash on the first operation, after the first cell of its block tuple
    ("z4ring", (0, 1, 2, 1),
     {"operation": "add", "args": [1, 1], "other_args": [1, 3], "values": [2, 0]}),
    # the clash is at the sixth cell of the block tuple; "args" stays its first cell
    ("lat22", (0, 0, 0, 3),
     {"operation": "join", "args": [0, 0], "other_args": [1, 2], "values": [0, 3]}),
    # "meet" descends to 01|2|3, so the clash is on the second operation
    ("lat22", (0, 0, 2, 3),
     {"operation": "join", "args": [0, 2], "other_args": [1, 2], "values": [2, 3]}),
])
def test_compatibility_witness_is_first_clash_in_table_order(name, rep, witness):
    A = corpus_algebra(name)
    assert compatibility_witness(A, rep) == witness
    assert compatibility_witness(A, list(rep)) == witness
    with pytest.raises(ValidationError, match="not a congruence"):
        Congruence.from_blocks(A, Congruence(A, rep).to_blocks_list())


def test_all_congruences_equals_partition_filtering():
    for name in SMALL:
        A = corpus_algebra(name)
        got = {c.rep for c in all_congruences(A)}
        assert got == brute_congruences(A), name


def test_lattice_tables_against_recomputation():
    for name in ("z4", "v4", "chain3", "lat22"):
        A = corpus_algebra(name)
        L = all_congruences(A)
        E = L.elements
        # canonical element order: coarser last
        keys = [c.key() for c in E]
        assert keys == sorted(keys)
        assert E[0].is_diagonal() and E[-1].is_total()
        for i, c1 in enumerate(E):
            for j, c2 in enumerate(E):
                assert L.leq[i][j] == refines(c1.rep, c2.rep)
                assert E[L.meet_table[i][j]].rep == congruence_meet(c1, c2).rep
                assert E[L.join_table[i][j]].rep == congruence_join(c1, c2).rep


def test_known_lattice_shapes():
    assert len(all_congruences(corpus_algebra("z4")).elements) == 3
    v4L = all_congruences(corpus_algebra("v4"))
    assert len(v4L.elements) == 5
    assert v4L.modular and not v4L.distributive  # the diamond
    z4L = all_congruences(corpus_algebra("z4"))
    assert z4L.modular and z4L.distributive  # a chain
    assert len(all_congruences(corpus_algebra("one")).elements) == 1


def test_principal_congruences_against_oracle():
    for name in ("z4", "v4", "chain3", "semilat2", "z4ring", "lat22"):
        A = corpus_algebra(name)
        for a in range(A.size):
            for b in range(A.size):
                assert principal_congruence(A, a, b).rep == brute_principal(A, a, b), (name, a, b)


def test_generated_congruence_is_join_of_principals():
    for name in ("z4", "v4", "lat22"):
        A = corpus_algebra(name)
        for _ in range(20):
            pairs = [(rng.randrange(A.size), rng.randrange(A.size)) for _ in range(3)]
            got = generated_congruence(A, pairs)
            expect = join_closure([principal_congruence(A, a, b).rep for a, b in pairs], A.size)
            assert got.rep == expect
    with pytest.raises(ValidationError):
        generated_congruence(corpus_algebra("z4"), [(0, 9)])


def _coordinates(m, S):
    """Coordinate congruence of z2^m that forgets the coordinates in S:
    coordinate i has weight 2^(m-1-i), and x's least block member zeroes them."""
    mask = sum(1 << (m - 1 - i) for i in S)
    return tuple(x & ~mask for x in range(2 ** m))


@pytest.mark.parametrize("m", [5, 7, 9])
def test_join_on_large_carriers_against_oracle(m):
    # 32 to 512 elements, far above the random algebras' five: the forests of
    # these joins and closures grow find paths of two links
    A = power_algebra(corpus_algebra("z2"), m)
    local = random.Random(m)
    for _ in range(6):
        S = local.sample(range(m), local.randrange(m + 1))
        T = local.sample(range(m), local.randrange(m + 1))
        t1, t2 = Congruence(A, _coordinates(m, S)), Congruence(A, _coordinates(m, T))
        joined = congruence_join(t1, t2).rep
        assert joined == join_closure([t1.rep, t2.rep], A.size)
        assert joined == _coordinates(m, set(S) | set(T))
        # the pairs (0, e_i) generate the subgroup of the coordinates in S
        units = [(0, 1 << (m - 1 - i)) for i in S]
        assert generated_congruence(A, units).rep == t1.rep


def test_translation_columns_are_distinct_and_not_the_identity():
    c = {name: corpus_algebra(name) for name in CORPUS_NAMES}
    algebras = list(c.values()) + [power_algebra(c["z2"], 4), direct_product(c["v4"], c["z4"]),
                                   power_algebra(c["chain3"], 2)]
    for A in algebras:
        n = A.size
        cols = _translation_columns(A)
        assert len(cols) == n
        translations = list(zip(*cols))
        # every basic translation x -> f(c1, .., x, .., ck), read cell by cell
        expect = set()
        for op in A.ops:
            for args in itertools.product(range(n), repeat=op.arity):
                for pos in range(op.arity):
                    expect.add(tuple(apply_raw(A, op, args[:pos] + (x,) + args[pos + 1:])
                                     for x in range(n)))
        expect.discard(tuple(range(n)))
        assert len(translations) == len(set(translations)), A.name
        assert set(translations) == expect, A.name
    assert len(_translation_columns(power_algebra(c["z2"], 4))[0]) == 15


def test_con_sizes_of_products_and_powers():
    c = {name: corpus_algebra(name) for name in CORPUS_NAMES}
    for A, size in ((power_algebra(c["z2"], 4), 67), (direct_product(c["v4"], c["z4"]), 27),
                    (power_algebra(c["z4ring"], 2), 9), (power_algebra(c["chain3"], 2), 16),
                    (power_algebra(c["semilat2"], 3), 61)):
        assert len(all_congruences(A, max_size=16)) == size, A.name


def test_meet_join_lattice_laws():
    for name in ("v4", "z4ring", "lat22"):
        A = corpus_algebra(name)
        L = all_congruences(A)
        for c1 in L.elements:
            for c2 in L.elements:
                m, j = congruence_meet(c1, c2), congruence_join(c1, c2)
                i1, i2, im, ij = (L.index[c.rep] for c in (c1, c2, m, j))
                assert L.leq[im][i1] and L.leq[im][i2]
                assert L.leq[i1][ij] and L.leq[i2][ij]
                assert congruence_meet(c1, c1).rep == c1.rep
                # absorption
                assert congruence_join(c1, m).rep == c1.rep
                assert congruence_meet(c1, j).rep == c1.rep


def test_compose_relation_and_permutability():
    chain3 = corpus_algebra("chain3")
    t1 = principal_congruence(chain3, 0, 1)
    t2 = principal_congruence(chain3, 1, 2)
    fwd, perm = compose(t1, t2)
    assert not perm
    assert (0, 2) in fwd
    bwd, _ = compose(t2, t1)
    assert (0, 2) not in bwd
    z4 = corpus_algebra("z4")
    E = all_congruences(z4).elements
    for c1 in E:
        for c2 in E:
            _, perm = compose(c1, c2)
            assert perm  # groups are congruence-permutable


def test_budget_cap_on_enumeration():
    big = power_algebra(corpus_algebra("z2"), 4)
    with pytest.raises(BudgetError):
        all_congruences(big)
    cube = power_algebra(corpus_algebra("z2"), 3)
    L = all_congruences(cube)
    assert len(L.elements) == 16  # subgroup lattice of the 3-dim GF(2) space


def test_quotient_lift_round_trip_and_order_iso():
    for name in ("z4", "v4", "chain3", "lat22", "z4ring"):
        A = corpus_algebra(name)
        L = all_congruences(A)
        for s, sigma in enumerate(L.elements):
            Q = quotient_algebra(A, sigma)
            above = [t for t, up in zip(L.elements, L.leq[s]) if up]
            down = [quotient_lift(Q, t) for t in above]
            qE = {c.rep for c in all_congruences(Q.algebra)}
            # the correspondence is a bijection [sigma, total] -> Con(A/sigma)
            assert {d.rep for d in down} == qE, name
            for t, d in zip(above, down):
                back = transport(Q.projection, d)
                assert back.rep == t.rep
            # and it preserves order both ways
            for i, t1 in enumerate(above):
                for j, t2 in enumerate(above):
                    assert rep_leq(t1.rep, t2.rep) == rep_leq(down[i].rep, down[j].rep)


def test_quotient_lift_rejects_bad_arguments():
    z4 = corpus_algebra("z4")
    sigma = principal_congruence(z4, 0, 2)
    Q = quotient_algebra(z4, sigma)
    other = Congruence.diagonal(corpus_algebra("v4"))
    with pytest.raises(ValidationError):
        quotient_lift(Q, other)
    total = Congruence.total(z4)
    with pytest.raises(ValidationError, match="down lift needs sigma <= theta"):
        quotient_lift(quotient_algebra(z4, total), sigma)  # sigma not above total
    with pytest.raises(ValidationError):
        transport(Q.projection, sigma)  # the up-lift's arg lives on A, not A/sigma


def test_transport_functor_laws_on_200_triples():
    pool = ["z2", "z4", "v4", "chain2", "chain3"]
    cons = {n: all_congruences(corpus_algebra(n)).elements for n in pool}
    triples = 0
    for na, nb, nc in itertools.product(pool, repeat=3):
        A, B, C = (corpus_algebra(n) for n in (na, nb, nc))
        fs, gs = all_homs(A, B), all_homs(B, C)
        if not fs or not gs:
            continue
        for f in fs[:3]:
            for g in gs[:3]:
                gf = g.compose(f)
                for theta in cons[nc]:
                    lhs = transport(gf, theta)
                    rhs = transport(f, transport(g, theta))
                    assert lhs.rep == rhs.rep
                    triples += 1
    assert triples >= 200


def test_transport_identity_and_iso_laws():
    for name in ("z4", "v4", "lat22"):
        A = corpus_algebra(name)
        E = all_congruences(A).elements
        ident = Homomorphism(A, A, list(range(A.size)))
        for theta in E:
            assert transport(ident, theta).rep == theta.rep
        for f in automorphisms(A):
            inv = f.inverse()
            for theta in E:
                push = transport(inv, theta)
                # pullback along the inverse is the image of theta, block by
                # block, and pullback along f inverts it
                image = Congruence.from_blocks(A, [[f(x) for x in b] for b in theta.blocks])
                assert push.rep == image.rep
                assert transport(f, push).rep == theta.rep
            # permutability of pairs survives transport along an isomorphism
            for t1 in E:
                for t2 in E:
                    _, before = compose(t1, t2)
                    _, after = compose(transport(inv, t1), transport(inv, t2))
                    assert before == after


def test_pushforward_requires_isomorphism():
    z4 = corpus_algebra("z4")
    z2 = corpus_algebra("z2")
    h = Homomorphism(z4, z2, [0, 1, 0, 1])
    # pushforward is the pullback along the inverse, which a collapsing map lacks
    with pytest.raises(ValidationError, match="not bijective"):
        transport(h.inverse(), Congruence.diagonal(z4))
    theta = Congruence.diagonal(z2)
    assert transport(h, theta).to_blocks_list() == [[0, 2], [1, 3]]
    with pytest.raises(ValidationError, match="target algebra"):
        transport(h, Congruence.diagonal(z4))


def test_relative_congruences_filters_by_quotient():
    z4 = corpus_algebra("z4")
    comm = parse_sentence("(+ x y) = (+ y x)", z4.signature())
    assert len(relative_congruences(z4, [comm])) == 3  # all of Con(z4)
    collapse = parse_sentence("x = y", z4.signature())
    only_total = relative_congruences(z4, [collapse])
    assert len(only_total) == 1 and only_total[0].is_total()
    # x+x = 0 written variable-only: (x+x) = (y+y) cuts the middle congruence out
    char2 = parse_sentence("(+ x x) = (+ y y)", z4.signature())
    reps = {c.rep for c in relative_congruences(z4, [char2])}
    assert reps == {(0, 1, 0, 1), (0, 0, 0, 0)}
