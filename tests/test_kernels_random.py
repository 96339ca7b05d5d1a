"""Differential tests of the finite kernels on random algebras.

Random algebras of at most 5 elements with operations of arity at most 2
are checked against the brute-force oracles: generated congruences and the
whole of Con(A) against partition filtering, joins against the transitive
closure of the union, the lattice tables against bounds read off the order
and, on meet- and join-closed sub-families, against pairwise refines, meet
and join, the Boolean-sublattice witness (of the lattice tables and of
boolean_sublattice_check) against a check on the relations themselves,
homomorphism checks and their messages (arities up to 3) against
exhaustive map enumeration, the block gather against per-cell indexing,
isomorphism search (arities up to 3) against the bijective maps among
them, the product, power, quotient and relabelling constructors against
cell-by-cell construction, factor-pair verdicts against relational
products over all triples, and the table-driven complement lists against
check_factor_pair.  The cover relation, the modular and distributive flags
and every neutrality witness are checked against the triple loops of the
definitions, on Con(A) and on random lattices given as the closed sets of
random Moore families.  On relabelled products of corpus groups, rings and
lattices of up to 16 elements, every principal congruence the Con(A)
closure computes, reusing the ones it already knows, is checked against
a closure from scratch.
Hypothesis runs derandomized with a bounded number of examples, so every
run tries the same algebras.
"""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cbswb.algebra import (
    FiniteAlgebra,
    Homomorphism,
    Operation,
    direct_product,
    gather,
    image_indices,
    iso_search,
    power_algebra,
    quotient_algebra,
    relabel,
    table_args,
)
from cbswb.cbs import boolean_sublattice_check
from cbswb import congruence
from cbswb.congruence import (
    Congruence,
    CongruenceLattice,
    all_congruences,
    congruence_join,
    congruence_meet,
    generated_congruence,
)
from cbswb.corpus import corpus_algebra
from cbswb.errors import ValidationError
from cbswb.lattice import FiniteLattice
from cbswb.omega import QuasiCyclic
from cbswb.structure import center_of_lattice, check_factor_pair, factor_congruences

from oracles import (
    all_homs,
    apply_raw,
    boolean_sublattice_failure,
    brute_congruences,
    factor_pair_verdict,
    join_closure,
    lattice_covers,
    lattice_is_distributive,
    lattice_is_modular,
    meet_rep,
    neutrality_failure,
    order_bound,
    partition_reps,
    refines,
)

KERNEL_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=100)


def tables(draw, size, arities):
    """Operations over a drawn labelling of the carrier, compatible with it.

    Uniform random tables seldom have congruences besides the two trivial
    ones, so cells whose arguments agree label by label draw their values
    from one label class: the labelling's kernel is planted as a congruence.
    """
    label = draw(st.lists(st.integers(0, size - 1), min_size=size, max_size=size))
    classes = {}
    for x, c in enumerate(label):
        classes.setdefault(c, []).append(x)
    ops = []
    for i, k in enumerate(arities):
        target = {}
        table = []
        for args in itertools.product(range(size), repeat=k):
            key = tuple(label[a] for a in args)
            if key not in target:
                target[key] = draw(st.sampled_from(sorted(classes)))
            table.append(draw(st.sampled_from(classes[target[key]])))
        ops.append(Operation(f"f{i}", k, tuple(table)))
    return ops


signatures = st.lists(st.integers(0, 2), min_size=1, max_size=3)


@st.composite
def algebra_and_pairs(draw):
    size = draw(st.integers(1, 5))
    A = FiniteAlgebra("r", size, tables(draw, size, draw(signatures)))
    element = st.integers(0, size - 1)
    pairs = draw(st.lists(st.tuples(element, element), max_size=3))
    return A, pairs


@st.composite
def algebra_pair(draw):
    """Two algebras of one signature, small enough to enumerate all maps."""
    arities = draw(signatures)
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 5 if n <= 4 else 3))
    return (FiniteAlgebra("a", n, tables(draw, n, arities)),
            FiniteAlgebra("b", m, tables(draw, m, arities)))


@KERNEL_SETTINGS
@given(algebra_and_pairs())
def test_generated_congruence_is_least_containing_congruence(case):
    A, pairs = case
    cons = brute_congruences(A)
    principal = [[(a, b)] for a, b in itertools.combinations(range(A.size), 2)]
    for gens in [pairs] + principal:
        above = [rep for rep in cons if all(rep[a] == rep[b] for a, b in gens)]
        least = max(above, key=lambda rep: len(set(rep)))
        assert all(all(rep[x] == rep[least[x]] for x in range(A.size)) for rep in above)
        assert generated_congruence(A, gens).rep == least, gens


@KERNEL_SETTINGS
@given(algebra_and_pairs())
def test_congruence_join_is_equivalence_join(case):
    A, _ = case
    cons = brute_congruences(A)
    for r1, r2 in itertools.combinations_with_replacement(sorted(cons), 2):
        joined = congruence_join(Congruence(A, r1), Congruence(A, r2)).rep
        assert joined == join_closure([r1, r2], A.size)
        assert joined in cons


@KERNEL_SETTINGS
@given(algebra_and_pairs())
def test_congruence_lattice_matches_partition_oracle(case):
    A, _ = case
    L = all_congruences(A)
    reps = [c.rep for c in L.elements]
    assert set(reps) == brute_congruences(A) and len(reps) == len(set(reps))
    m = len(reps)
    assert L.leq == tuple(tuple(refines(a, b) for b in reps) for a in reps)
    for i in range(m):
        for j in range(m):
            assert L.meet(i, j) == order_bound(L.leq, i, j, lower=True)
            assert L.join(i, j) == order_bound(L.leq, i, j, lower=False)
    assert reps[L.bottom] == tuple(range(A.size))
    assert reps[L.top] == (0,) * A.size


# corpus algebras of one signature each
FAMILIES = {"group": ("z2", "z3", "z4", "v4"), "ring": ("z4ring",),
            "lattice": ("chain2", "chain3", "lat22")}


@st.composite
def corpus_product(draw):
    """A relabelled product of one to four corpus algebras of one family,
    of at most 16 elements, with the name of the family.

    Translations of groups and rings carry most pairs onto pairs met
    earlier, so the Con(A) closure stops most principal closures at a known
    principal congruence.  Lattice translations are not injective, so there
    a known congruence that does not relate the pair still adds blocks."""
    family = draw(st.sampled_from(sorted(FAMILIES)))
    names, size = [], 1
    for name in draw(st.lists(st.sampled_from(FAMILIES[family]), min_size=1, max_size=4)):
        if size * corpus_algebra(name).size <= 16:
            names.append(name)
            size *= corpus_algebra(name).size
    A = corpus_algebra(names[0])
    for name in names[1:]:
        A = direct_product(A, corpus_algebra(name))
    return family, relabel(A, draw(st.permutations(range(A.size))))[0]


@KERNEL_SETTINGS
@given(corpus_product())
def test_closure_principals_match_fresh_closures(case):
    family, A = case
    calls = []
    fresh = congruence._generated_rep

    def recording(n, pairs, cols, known=None):
        rep = fresh(n, pairs, cols, known)
        calls.append((pairs, rep))
        return rep

    congruence._generated_rep = recording
    try:
        L = all_congruences(A, max_size=16)
    finally:
        congruence._generated_rep = fresh
    assert [p for p, _ in calls] == [[pair] for pair in itertools.combinations(range(A.size), 2)]
    for pairs, rep in calls:
        assert rep == generated_congruence(A, pairs).rep, pairs
    # a closure stopped early returns the very array of a known principal
    reused = [i for i, (_, rep) in enumerate(calls) if any(rep is r for _, r in calls[:i])]
    assert reused or A.size < 3 or family == "lattice"
    # holding every principal and closed under joins, L is all of Con(A)
    reps = {c.rep for c in L}
    assert {rep for _, rep in calls} <= reps
    assert reps == {congruence_join(*pair).rep for pair in itertools.combinations_with_replacement(L, 2)}
    if A.size <= 6:
        assert {c.rep for c in L} == brute_congruences(A)


def closure(reps, ops):
    out = set(reps)
    while True:
        more = {f(a, b) for a in out for b in out for f in ops} - out
        if not more:
            return out
        out |= more


@KERNEL_SETTINGS
@given(algebra_and_pairs(), st.data())
def test_boolean_failure_matches_relation_oracle(case, data):
    A, _ = case
    L = all_congruences(A)
    reps = [c.rep for c in L.elements]
    index = {r: i for i, r in enumerate(reps)}
    bounds = [reps[L.bottom], reps[L.top]]

    def join(a, b):
        return join_closure([a, b], A.size)

    # Con(A) without one bound; the diagonal is the total on one element
    families = [range(len(reps)), center_of_lattice(L).central,
                [i for i in range(len(reps)) if i != L.bottom],
                [i for i in range(len(reps)) if i != L.top]]
    subset = st.lists(st.sampled_from(range(len(reps))), max_size=6, unique=True)
    for drawn in data.draw(st.lists(subset, min_size=3, max_size=3)):
        drawn = [reps[i] for i in drawn]
        # raw draws fail closure; meet-closed ones with the diagonal reach
        # the join check; closed ones with both bounds reach the complements.
        # boolean_sublattice_check asks for both bounds before closure.
        families += [
            sorted(index[r] for r in drawn),
            sorted(index[r] for r in closure(drawn + bounds[:1], [meet_rep])),
            sorted(index[r] for r in closure(drawn + bounds, [meet_rep, join])),
            sorted(index[r] for r in set(drawn + bounds)),
            sorted(index[r] for r in closure(drawn + bounds, [meet_rep])),
        ]
    for members in families:
        got = L.boolean_failure(members)
        if got is not None:
            reason, at = got
            if reason == "complement_not_unique":
                at = (reps[at[0]], [reps[j] for j in at[1]])
            else:
                at = tuple(reps[i] for i in at)
            got = reason, at
        want = boolean_sublattice_failure([reps[i] for i in members], A.size)
        assert got == want, members
        verdict = boolean_sublattice_check(A, [L.elements[i] for i in sorted(members)])
        if L.bottom not in members:
            want = "missing_diagonal", None
        elif L.top not in members:
            want = "missing_total", None
        elif want is None:
            want = None, None
        elif want[0] == "complement_not_unique":
            at = want[1]
            want = want[0], [blocks(at[0]), [blocks(r) for r in at[1]]]
        else:
            want = want[0], [blocks(r) for r in want[1]]
        assert verdict == {"ok": want[0] is None, "reason": want[0], "witness": want[1]}, members

    # a member outside Con(A) is refused with a ValidationError, not a KeyError
    partitions = partition_reps(A.size)
    outside = [rep for rep in partitions if rep not in index]
    if outside:
        family = [L.elements[L.bottom], L.elements[L.top], Congruence(A, outside[0])]
        with pytest.raises(ValidationError):
            boolean_sublattice_check(A, family)


def blocks(rep):
    return [[x for x, r in enumerate(rep) if r == b] for b in sorted(set(rep))]


@KERNEL_SETTINGS
@given(algebra_and_pairs(), st.data())
def test_sublattice_tables_match_pairwise_operations(case, data):
    A, _ = case
    E = all_congruences(A).elements
    reps = [c.rep for c in E]
    by_rep = dict(zip(reps, E))

    def join(a, b):
        return join_closure([a, b], A.size)

    # test_congruence_lattice_matches_partition_oracle covers the whole of Con(A)
    subset = st.lists(st.sampled_from(range(len(E))), min_size=1, max_size=4, unique=True)
    for drawn in data.draw(st.lists(subset, min_size=3, max_size=3)):
        family = [by_rep[r] for r in closure([reps[i] for i in drawn], [meet_rep, join])]
        L = CongruenceLattice(A, family)
        F = L.elements
        assert sorted(c.rep for c in F) == sorted(c.rep for c in family)
        index = {c.rep: i for i, c in enumerate(F)}
        assert L.leq == tuple(tuple(a.refines(b) for b in F) for a in F)
        assert L.meet_table == tuple(tuple(index[congruence_meet(a, b).rep] for b in F) for a in F)
        assert L.join_table == tuple(tuple(index[congruence_join(a, b).rep] for b in F) for a in F)


def first_failing_cell(A, B, mapping):
    for op, opb in zip(A.ops, B.ops):
        for idx, args in enumerate(itertools.product(range(A.size), repeat=op.arity)):
            lhs = mapping[op.table[idx]]
            idxb = 0
            for a in args:
                idxb = idxb * B.size + mapping[a]
            if lhs != opb.table[idxb]:
                return f"map does not preserve {op.name!r} at {args}: {lhs} != {opb.table[idxb]}"
    return None


def check_homomorphism_verdicts(A, B):
    homs = {h.mapping for h in all_homs(A, B)}
    for mapping in itertools.product(range(B.size), repeat=A.size):
        if mapping in homs:
            assert Homomorphism(A, B, mapping).mapping == mapping
        else:
            with pytest.raises(ValidationError) as err:
                Homomorphism(A, B, mapping)
            assert str(err.value) == first_failing_cell(A, B, mapping)


@KERNEL_SETTINGS
@given(algebra_pair())
def test_homomorphism_accepts_exactly_all_homs(case):
    check_homomorphism_verdicts(*case)


@st.composite
def ternary_algebra_pair(draw):
    """Two algebras of one signature with arities up to 3 on 1 to 3 elements:
    at arity 3 each first-argument block of a table splits twice more."""
    arities = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return (FiniteAlgebra("a", n, tables(draw, n, arities)),
            FiniteAlgebra("b", m, tables(draw, m, arities)))


@KERNEL_SETTINGS
@given(ternary_algebra_pair())
def test_homomorphism_messages_up_to_arity_3(case):
    check_homomorphism_verdicts(*case)


@st.composite
def gather_case(draw):
    """A table of arity 0 to 3 over 1 to 4 elements and a map into that carrier
    from a domain of 1 to 5 elements, neither injective nor surjective in general."""
    k, n, size = draw(st.integers(0, 3)), draw(st.integers(1, 5)), draw(st.integers(1, 4))
    mapping = draw(st.lists(st.integers(0, size - 1), min_size=n, max_size=n))
    table = draw(st.lists(st.integers(0, 9), min_size=size ** k, max_size=size ** k))
    return tuple(table), mapping, k, size


@KERNEL_SETTINGS
@given(gather_case())
# a one-cell inner block: one domain element, or arity 1
@example(((0, 1, 2, 3, 4, 5, 6, 7), [1], 3, 2))
@example(((4, 5, 6), [2, 2, 0, 2], 1, 3))
# one block reused by every first argument of a constant map
@example((tuple(range(27)), [1, 1, 1, 1, 1], 3, 3))
def test_gather_and_table_args_match_per_cell_reference(case):
    table, mapping, k, size = case
    assert gather(table, mapping, k, size) == [table[i] for i in image_indices(mapping, k, size)]
    n = len(mapping)
    cells = list(itertools.product(range(n), repeat=k))
    assert [table_args(k, n, i) for i in range(n ** k)] == cells


@st.composite
def iso_case(draw):
    """An algebra of at most 5 elements with arities 0 to 3 and a second one
    of its size and signature: half the time a relabelled copy, so that
    isomorphisms exist, otherwise drawn on its own.

    Tables are uniform (one list per operation, no planted congruence), which
    keeps 125-cell tables within hypothesis's data budget often enough that
    5-element algebras with ternary operations are drawn."""
    copy = draw(st.booleans())
    n = draw(st.integers(1, 5))
    arities = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))

    def algebra(name):
        return FiniteAlgebra(name, n, [
            Operation(f"f{i}", k, tuple(draw(st.lists(st.integers(0, n - 1),
                                                      min_size=n ** k, max_size=n ** k))))
            for i, k in enumerate(arities)
        ])

    A = algebra("a")
    if copy:
        return A, relabel(A, draw(st.permutations(range(n))), name="b")[0]
    return A, algebra("b")


@KERNEL_SETTINGS
@given(iso_case())
def test_iso_search_matches_bijective_homs(case):
    A, B = case
    isos = [h.mapping for h in all_homs(A, B) if h.is_bijective()]
    assert [h.mapping for h in iso_search(A, B, mode="all")] == isos
    assert [h.mapping for h in iso_search(A, B, mode="first")] == isos[:1]


@st.composite
def constructor_case(draw):
    """Two algebras of one signature with arities up to 3, an exponent whose
    power keeps every table at 4096 cells or fewer, and a permutation."""
    arities = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    n = draw(st.integers(1, 4))
    A = FiniteAlgebra("a", n, tables(draw, n, arities))
    nb = draw(st.integers(1, 4))
    B = FiniteAlgebra("b", nb, tables(draw, nb, arities))
    m = max(j for j in range(1, draw(st.integers(1, 3)) + 1) if n ** (j * max(arities)) <= 4096)
    return A, B, m, draw(st.permutations(range(n)))


def cellwise(size, ops, cell):
    """Operations over range(size) whose value at args is cell(op, args)."""
    return tuple(
        Operation(op.name, op.arity,
                  tuple(cell(op, args) for args in itertools.product(range(size), repeat=op.arity)))
        for op in ops
    )


def digits(p, base, m):
    return [p // base ** (m - 1 - i) % base for i in range(m)]


def assert_passes_cell_check(R):
    """R equals, and hashes like, its tables passed through the public
    constructor, which checks every cell: the library's own constructors
    skip that check, and this is its oracle."""
    oracle = FiniteAlgebra(R.name, R.size, R.ops)
    # every field, so the checked and the unchecked constructor cannot drift apart
    assert vars(R) == vars(oracle)
    assert R == oracle and hash(R) == hash(oracle)


@KERNEL_SETTINGS
@given(constructor_case())
def test_constructors_match_cellwise_construction(case):
    A, B, m, perm = case
    n, nb = A.size, B.size
    built = []
    real_built = FiniteAlgebra.__dict__["_built"]

    def keep(name, size, ops):
        built.append(real_built.__func__(FiniteAlgebra, name, size, ops))
        return built[-1]

    FiniteAlgebra._built = keep
    try:
        check_constructors(A, B, m, perm)
    finally:
        FiniteAlgebra._built = real_built
    # a product, a power, a relabelling and a quotient per partition, which
    # is built before its projection check rejects a non-congruence
    assert len(built) == 3 + len(partition_reps(A.size))
    for R in built:
        assert_passes_cell_check(R)


def test_quasicyclic_truncations_pass_the_cell_check():
    for p, top in ((2, 4), (3, 3), (5, 2), (7, 1)):
        qc = QuasiCyclic(p)
        for m in range(top + 1):
            T = qc.truncation(m)
            assert T.ops[0].table == tuple((a + b) % p ** m
                                           for a in range(p ** m) for b in range(p ** m))
            assert_passes_cell_check(T)


def check_constructors(A, B, m, perm):
    n, nb = A.size, B.size

    def product_cell(op, args):
        opb = B.op(op.name)
        return apply_raw(A, op, [p // nb for p in args]) * nb + apply_raw(B, opb, [p % nb for p in args])

    P = direct_product(A, B)
    assert P.ops == cellwise(n * nb, A.ops, product_cell)
    # both coordinate projections are homomorphisms
    Homomorphism(P, A, [p // nb for p in range(n * nb)])
    Homomorphism(P, B, [p % nb for p in range(n * nb)])

    def power_cell(op, args):
        coords = [digits(p, n, m) for p in args]
        enc = 0
        for i in range(m):
            enc = enc * n + apply_raw(A, op, [c[i] for c in coords])
        return enc

    assert power_algebra(A, m).ops == cellwise(n ** m, A.ops, power_cell)

    inv = [perm.index(y) for y in range(n)]
    copy, iso = relabel(A, perm)
    assert copy.ops == cellwise(n, A.ops, lambda op, args: perm[apply_raw(A, op, [inv[a] for a in args])])
    assert iso.mapping == tuple(perm)

    cons = brute_congruences(A)
    for rep in partition_reps(n):
        if rep not in cons:
            with pytest.raises(ValidationError):
                quotient_algebra(A, Congruence(A, rep))
            continue
        reps = sorted(set(rep))
        Q = quotient_algebra(A, Congruence(A, rep))
        assert Q.algebra.ops == cellwise(
            len(reps), A.ops, lambda op, args: reps.index(rep[apply_raw(A, op, [reps[i] for i in args])])
        )
        assert Q.projection.mapping == tuple(reps.index(r) for r in rep)


@KERNEL_SETTINGS
@given(algebra_and_pairs())
def test_check_factor_pair_matches_triple_oracle(case):
    A, _ = case
    cons = sorted(brute_congruences(A))
    for r1, r2 in itertools.product(cons, repeat=2):
        got = check_factor_pair(A, Congruence(A, r1), Congruence(A, r2))
        assert got == factor_pair_verdict(r1, r2, A.size), (r1, r2)


@KERNEL_SETTINGS
@given(algebra_and_pairs())
def test_factor_congruences_match_check_factor_pair(case):
    A, _ = case
    analysis = factor_congruences(A)
    E = analysis.lattice.elements
    for i, theta in enumerate(E):
        expected = tuple(j for j, phi in enumerate(E) if check_factor_pair(A, theta, phi)["ok"])
        assert analysis.complements.get(i, ()) == expected, i
    assert analysis.fc == tuple(sorted(analysis.complements))


def moore_case(points, gens):
    """The closed sets of the Moore family on range(points) generated by
    gens (bitmasks), listed by size (a linear extension of inclusion), with
    the lattice they form."""
    full = (1 << points) - 1
    closed = {full}
    for g in gens:
        closed |= {g & c for c in closed}
    sets = sorted(closed, key=lambda s: (bin(s).count("1"), s))
    return sets, FiniteLattice(tuple(tuple(a & b == a for b in sets) for a in sets))


@st.composite
def moore_lattice(draw):
    """A random Moore family on at most 5 points.  Every finite lattice is
    the lattice of closed sets of some Moore family, so these include
    non-modular ones; M3, N5 and M3 x 2 are added as examples."""
    points = draw(st.integers(0, 5))
    return moore_case(points, draw(st.lists(st.integers(0, (1 << points) - 1), max_size=8)))


def check_lattice_laws(L):
    M, J = L.meet_table, L.join_table
    assert [(i, j) for i, js in enumerate(L.covers) for j in js] == lattice_covers(L.leq)
    assert L.modular == lattice_is_modular(L.leq, M, J)
    assert L.distributive == lattice_is_distributive(M, J)
    for z in range(L.size):
        assert L.neutrality_failure(z) == neutrality_failure(M, J, z), z


@KERNEL_SETTINGS
@given(algebra_and_pairs())
def test_lattice_laws_of_con_match_triple_loops(case):
    check_lattice_laws(all_congruences(case[0]))


@KERNEL_SETTINGS
@given(moore_lattice())
@example(moore_case(3, [0b001, 0b010, 0b100]))  # M3
@example(moore_case(3, [0b001, 0b011, 0b100]))  # N5
@example(moore_case(4, [0b0001, 0b0010, 0b0100, 0b1000, 0b1001, 0b1010, 0b1100, 0b0111]))  # M3 x 2
def test_lattice_laws_of_moore_families_match_triple_loops(case):
    sets, L = case
    m = len(sets)
    assert (sets[L.bottom], sets[L.top]) == (sets[0], sets[-1])
    for i in range(m):
        for j in range(m):
            assert sets[L.meet(i, j)] == sets[i] & sets[j]
            uppers = [s for s in sets if s & (sets[i] | sets[j]) == sets[i] | sets[j]]
            assert sets[L.join(i, j)] == min(uppers, key=lambda s: bin(s).count("1"))
    check_lattice_laws(L)
