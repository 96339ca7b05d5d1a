"""Differential tests of the finite kernels on random algebras.

Random algebras of at most 5 elements with operations of arity at most 2
are checked against the brute-force oracles: generated congruences and the
whole of Con(A) against partition filtering, joins against the transitive
closure of the union, the lattice tables against bounds read off the order
and, on meet- and join-closed sub-families, against pairwise refines, meet
and join, the Boolean-sublattice witness (of the lattice tables and of
boolean_sublattice_check) against a check on the relations themselves,
homomorphism checks and their messages (arities up to 3) against
exhaustive map enumeration, the block gather, compose and concat against
per-cell indexing, isomorphism search (arities up to 3) against the
bijective maps among them, the product, power, quotient and relabelling constructors against
cell-by-cell construction, quotients through a finer congruence (on up
to 6 elements, arities up to 3) against the direct quotient, the unchecked
diagonal quotient, inverses, composites, the maps the isomorphism search
yields and the pairing maps of factor pairs against the checked
homomorphism constructor, factor-pair verdicts against relational
products over all triples, and the table-driven complement lists against
check_factor_pair.  The cover relation, the modular and distributive flags
and every neutrality witness are checked against the triple loops of the
definitions, on Con(A) and on random lattices given as the closed sets of
random Moore families.  On relabelled products of corpus groups, rings and
lattices of up to 16 elements, every principal congruence the Con(A)
closure computes, reusing the ones it already knows, is checked against
a closure from scratch.  The reports of both CBS verbs, which run the one
case a finite algebra has, are checked byte for byte against the general
searches over every member of K(A), on random algebras of at most 4
elements, and so is the CBS sequence of every automorphism against the
general sequence through A/diagonal.  The correspondence block of
presheaf_check, read off the positions of K(A) in Con(A) and
Con(A/sigma), is checked against
refinement scans on random algebras of at most 5 elements (arities up to
3), also with one lift replaced by a wrong congruence; its factor block,
for the kinds fc and zcon, and the pair checks of the centre report are
checked against check_factor_pair run on every pair on the same algebras
and on a hand-built 8-element algebra whose factor block lists failing
quotient pairs.  The verdict and
witness of satisfies are checked against a recursive evaluation of every
assignment on random algebras of at most 4 elements (arities up to 3) and
random sentences with up to two premises.  Around the largest carrier
whose tables are bytes (256 elements), on seeded tables of 255 to 257
elements, products of 255 to 289 elements and powers of 243 to 512
elements with their quotients onto at most 256 blocks, the block gather,
compose onto carriers of 1, 256 and 257 elements, the constructors and the
homomorphism check's verdicts and messages are checked against the same
per-cell references.  The compatibility witness of least-representative
partitions is checked against the dict scan over every argument tuple, on
seeded algebras of at most 6 elements (arities up to 3) and of 255, 256,
257 and 300 elements.
Hypothesis runs derandomized with a bounded number of examples, so every
run tries the same algebras.
"""

import functools
import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cbswb.algebra import (
    FiniteAlgebra,
    Homomorphism,
    Operation,
    Sentence,
    Term,
    _isomorphisms,
    compose,
    concat,
    direct_product,
    gather,
    image_indices,
    iso_search,
    parse_sentence,
    power_algebra,
    quotient_algebra,
    relabel,
    satisfies,
    table_args,
)
from cbswb.cbs import (
    OperatorKind,
    boolean_sublattice_check,
    cbs_complete_check,
    cbs_property_check,
    cbs_sequence,
    operator_eval,
    presheaf_check,
)
from cbswb import cbs, congruence
from cbswb.congruence import (
    Congruence,
    CongruenceLattice,
    all_congruences,
    compatibility_witness,
    congruence_join,
    congruence_meet,
    generated_congruence,
    least_rep,
    quotient_lift,
    quotient_through,
)
from cbswb.errors import ValidationError
from cbswb.lattice import FiniteLattice
from cbswb.omega import QuasiCyclic
from cbswb.report import json_text
from cbswb.structure import (center_of_lattice, check_factor_pair, decomposition_witness,
                             factor_congruences, z_con_report)

from oracles import (
    all_homs,
    apply_raw,
    automorphisms,
    boolean_sublattice_failure,
    brute_congruences,
    center_pair_checks,
    cbs_complete_search,
    cbs_property_search,
    compatibility_witness as scanned_witness,
    corpus_algebra,
    factor_pair_verdict,
    general_cbs_sequence,
    join_closure,
    lattice_covers,
    lattice_is_distributive,
    lattice_is_modular,
    meet_rep,
    naive_eval,
    naive_satisfies,
    neutrality_failure,
    order_bound,
    partition_reps,
    presheaf_correspondence,
    presheaf_factor,
    refines,
    rep_leq,
    relative_sentence_checks,
    reported_sequence,
    validate_sequence,
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
        assert L.leq == tuple(tuple(refines(a.rep, b.rep) for b in F) for a in F)
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
    reference = [table[i] for i in image_indices(mapping, k, size)]
    assert gather(table, mapping, k, size) == tuple(reference)
    assert gather(bytes(table), mapping, k, size) == bytes(reference)
    # the table's cells through a map on range(max(table) + 1): bytes and
    # tuple cells onto a small carrier, and bytes cells into one above 256
    onto = [mapping[v % len(mapping)] for v in range(max(table) + 1)]
    composed = [onto[v] for v in table]
    assert compose(bytes(table), onto, size) == bytes(composed)
    assert compose(table, onto, size) == bytes(composed)
    assert compose(bytes(table), [v + 256 for v in onto], size + 256) == tuple(v + 256 for v in composed)
    rows = [reference[i:i + size] for i in range(0, len(reference), size)]
    assert concat(map(bytes, rows), bytes) == bytes(reference)
    assert concat(map(tuple, rows), tuple) == tuple(reference)
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
    auts = automorphisms(A)
    assert [g.mapping for g in auts] == [h.mapping for h in all_homs(A, A) if h.is_bijective()]
    # the least isomorphism is the first map of the lexicographic list
    assert iso_search(A, A).mapping == auts[0].mapping
    first = iso_search(A, B)
    if isos:
        assert first.mapping == isos[0]
        # every isomorphism A -> B is the least one after an automorphism of A
        assert sorted(first.compose(g).mapping for g in auts) == isos
    else:
        assert first is None


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
    """Operations over range(size) whose value at args is cell(op, args),
    through the public constructor, which gives the tables their stored type."""
    return FiniteAlgebra("cells", size, [
        Operation(op.name, op.arity,
                  tuple(cell(op, args) for args in itertools.product(range(size), repeat=op.arity)))
        for op in ops
    ]).ops


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
            assert tuple(T.ops[0].table) == tuple((a + b) % p ** m
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


def seeded_ops(seed, size, arities, q=1):
    """Uniform tables over range(size) from a seeded generator, for carriers
    too big to draw cell by cell.  Cells whose arguments agree mod q take
    values in one residue class mod q, so x -> x % q is a congruence.  With
    q = 1 the last cell of each table is the top element, so a product of
    such algebras reaches its own top element."""
    rng = random.Random(seed)
    residues = [x % q for x in range(size)]
    ops = []
    for i, k in enumerate(arities):
        target = [rng.randrange(min(q, size)) for _ in range(q ** k)]
        table = [r + q * rng.randrange((size - 1 - r) // q + 1)
                 for r in map(target.__getitem__, image_indices(residues, k, q))]
        if q == 1:
            table[-1] = size - 1
        ops.append(Operation(f"f{i}", k, tuple(table)))
    return ops


def map_verdict(A, B, mapping):
    """The homomorphism check's message on A -> B, or None when it accepts."""
    try:
        Homomorphism(A, B, mapping)
    except ValidationError as err:
        return str(err)
    return None


def check_quotient(A, rep):
    """quotient_algebra on any partition rep against the cell-by-cell quotient
    on its least elements: the same tables and projection when the
    projection passes first_failing_cell, otherwise its message."""
    reps = sorted(set(rep))
    index = {r: i for i, r in enumerate(reps)}
    B = FiniteAlgebra("ref", len(reps), cellwise(
        len(reps), A.ops, lambda op, args: index[rep[apply_raw(A, op, [reps[i] for i in args])]]))
    projection = tuple(index[r] for r in rep)
    want = first_failing_cell(A, B, projection)
    if want is None:
        Q = quotient_algebra(A, Congruence(A, rep))
        assert Q.algebra.ops == B.ops and Q.projection.mapping == projection
    else:
        with pytest.raises(ValidationError) as err:
            quotient_algebra(A, Congruence(A, rep))
        assert str(err.value) == want


def moved(mapping, x, value):
    """mapping with x sent to value instead."""
    out = list(mapping)
    out[x] = value
    return out


@st.composite
def carrier_boundary_case(draw):
    """A carrier of 255, 256 or 257 elements (around the largest one whose
    tables are bytes), arities 0 to 2, a planted congruence x -> x % q and a
    seed for the tables and maps."""
    return (draw(st.sampled_from((255, 256, 257))),
            tuple(draw(st.lists(st.integers(0, 2), min_size=1, max_size=2))),
            draw(st.integers(1, 4)), draw(st.integers(0, 2 ** 32 - 1)))


# each example tables 243 to 512 elements, a binary operation up to 83,521
# cells, so fewer examples run; the explicit ones put binary operations on
# the boundary sizes
BOUNDARY_SETTINGS = settings(KERNEL_SETTINGS, max_examples=6)


@BOUNDARY_SETTINGS
@given(carrier_boundary_case())
@example((255, (2, 0), 3, 1))
@example((256, (1, 2), 2, 2))
@example((257, (2,), 4, 3))
def test_kernels_match_per_cell_references_around_256_elements(case):
    n, arities, q, seed = case
    A = FiniteAlgebra("a", n, seeded_ops(seed, n, arities, q))
    assert {type(op.table) for op in A.ops} == {bytes if n <= 256 else tuple}
    rng = random.Random(seed)
    # gather from domains on either side of 256 elements
    for op in A.ops:
        for d in (1, 256, 257):
            mapping = [rng.randrange(n) for _ in range(d)]
            got = gather(op.table, mapping, op.arity, n)
            assert type(got) is type(op.table)
            assert list(got) == [op.table[i] for i in image_indices(mapping, op.arity, n)]
        # compose onto carriers on either side of 256 elements
        for t in (1, 256, 257):
            onto = [rng.randrange(t) for _ in range(n)]
            got = compose(op.table, onto, t)
            assert type(got) is (bytes if t <= 256 else tuple)
            assert list(got) == [onto[c] for c in op.table]
    perm = rng.sample(range(n), n)
    inv = [perm.index(y) for y in range(n)]
    copy, iso = relabel(A, perm)
    assert copy.ops == cellwise(n, A.ops, lambda op, args: perm[apply_raw(A, op, [inv[a] for a in args])])
    assert iso.mapping == tuple(perm)
    x = rng.randrange(n)
    broken = moved(perm, x, perm[x - 1])
    assert map_verdict(A, copy, broken) == first_failing_cell(A, copy, broken)
    # the planted congruence, and one element moved to another block
    rep = least_rep([x % q for x in range(n)])
    check_quotient(A, rep)
    check_quotient(A, least_rep(moved(rep, n - 1, (n - 2) % q)))


def witness_partitions(A, q, rng):
    """Least-representative partitions for the compatibility check on A,
    whose tables plant x -> x % q: the planted congruence, it with its last
    element moved to the block of the one before, one generated by two
    random pairs and two random partitions."""
    n = A.size
    planted = least_rep([x % q for x in range(n)])
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(2)]
    return [planted, least_rep(moved(planted, n - 1, planted[n - 2])),
            generated_congruence(A, pairs).rep,
            *(least_rep([rng.randrange(k) for _ in range(n)]) for k in (2, n))]


@KERNEL_SETTINGS
@given(st.integers(1, 6), st.lists(st.integers(0, 3), min_size=1, max_size=3),
       st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
def test_compatibility_witness_matches_the_dict_scan(n, arities, q, seed):
    A = FiniteAlgebra("r", n, seeded_ops(seed, n, arities, q))
    for rep in witness_partitions(A, q, random.Random(seed)):
        assert compatibility_witness(A, rep) == scanned_witness(A, rep), rep


# a binary table on 300 elements is 90,000 cells for the scan, so few examples
@settings(BOUNDARY_SETTINGS, max_examples=4)
@given(st.sampled_from((255, 256, 257, 300)), st.lists(st.integers(0, 2), min_size=1, max_size=2),
       st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
@example(255, [2], 3, 1)
@example(256, [0, 1], 2, 2)
@example(257, [2], 4, 3)
@example(300, [2, 1], 3, 4)
def test_compatibility_witness_matches_the_dict_scan_on_large_carriers(n, arities, q, seed):
    A = FiniteAlgebra("a", n, seeded_ops(seed, n, arities, q))
    for rep in witness_partitions(A, q, random.Random(seed)):
        assert compatibility_witness(A, rep) == scanned_witness(A, rep), rep


@st.composite
def product_boundary_case(draw):
    """Factor sizes whose product is 255, 256 (cells reaching 255) or more,
    arities 0 to 2, and a seed for the tables and maps."""
    return (draw(st.sampled_from(((15, 17), (16, 16), (16, 17), (17, 15), (1, 256), (2, 128)))),
            tuple(draw(st.lists(st.integers(0, 2), min_size=1, max_size=2))),
            draw(st.integers(0, 2 ** 32 - 1)))


@BOUNDARY_SETTINGS
@given(product_boundary_case())
@example(((16, 16), (2, 0), 1))
@example(((16, 17), (1, 2), 2))
def test_products_match_per_cell_references_around_256_elements(case):
    (na, nb), arities, seed = case
    rng = random.Random(seed)
    A = FiniteAlgebra("a", na, seeded_ops(rng.random(), na, arities))
    B = FiniteAlgebra("b", nb, seeded_ops(rng.random(), nb, arities))
    n = na * nb
    P = direct_product(A, B)

    def product_cell(op, args):
        opb = B.op(op.name)
        return apply_raw(A, op, [p // nb for p in args]) * nb + apply_raw(B, opb, [p % nb for p in args])

    assert P.ops == cellwise(n, A.ops, product_cell)
    assert {type(op.table) for op in P.ops} == {bytes if n <= 256 else tuple}
    # each factor's last cell is its top element, so the product's is too
    assert all(op.table[-1] == n - 1 for op in P.ops)
    left, right = [p // nb for p in range(n)], [p % nb for p in range(n)]
    assert map_verdict(P, A, left) is None and map_verdict(P, B, right) is None
    x = rng.randrange(n)
    broken = moved(left, x, (left[x] + 1) % na)
    assert map_verdict(P, A, broken) == first_failing_cell(P, A, broken)
    # maps from a bytes algebra into a product of 256 or 289 elements
    if nb in (16, 17):
        D = direct_product(B, B)
        diagonal = [b * nb + b for b in range(nb)]
        assert map_verdict(B, D, diagonal) is None
        broken = moved(diagonal, rng.randrange(nb), rng.randrange(nb * nb))
        assert map_verdict(B, D, broken) == first_failing_cell(B, D, broken)
    check_quotient(P, least_rep(left))


@st.composite
def power_boundary_case(draw):
    """A power of 243, 256, 289 or 512 elements, arities 0 to 2 when the
    exponent is 2 and 0 to 1 above (the per-cell reference reads every
    coordinate of every cell), and a seed for the tables."""
    c, m = draw(st.sampled_from(((2, 8), (2, 9), (3, 5), (4, 4), (16, 2), (17, 2))))
    top = 2 if m == 2 else 1
    return c, m, tuple(draw(st.lists(st.integers(0, top), min_size=1, max_size=2))), \
        draw(st.integers(0, 2 ** 32 - 1))


@BOUNDARY_SETTINGS
@given(power_boundary_case())
@example((2, 9, (1, 0), 1))
@example((16, 2, (2,), 2))
def test_powers_and_their_quotients_match_per_cell_references(case):
    c, m, arities, seed = case
    C = FiniteAlgebra("c", c, seeded_ops(seed, c, arities))
    n = c ** m
    coords = [digits(p, c, m) for p in range(n)]

    def power_cell(op, args):
        enc = 0
        for i in range(m):
            enc = enc * c + apply_raw(C, op, [coords[p][i] for p in args])
        return enc

    P = power_algebra(C, m)
    assert P.ops == cellwise(n, C.ops, power_cell)
    assert {type(op.table) for op in P.ops} == {bytes if n <= 256 else tuple}
    # onto the coordinates in a drawn set: a congruence of at most 256 blocks
    rng = random.Random(seed)
    kept = rng.sample(range(m), min(m - 1, 8))
    rep = least_rep([tuple(coords[p][i] for i in kept) for p in range(n)])
    check_quotient(P, rep)
    check_quotient(P, least_rep(moved(rep, n - 1, 0)))


@st.composite
def quotient_case(draw):
    """An algebra of at most 6 elements with arities 0 to 3."""
    arities = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    n = draw(st.integers(1, 6))
    return FiniteAlgebra("a", n, tables(draw, n, arities))


def assert_checked(h):
    """h passes the public constructor, which checks the map on every cell."""
    assert Homomorphism(h.source, h.target, h.mapping) == h


@KERNEL_SETTINGS
@given(quotient_case(), st.data())
def test_derived_quotients_and_maps_pass_the_homomorphism_check(A, data):
    """Quotients through a finer congruence, the diagonal quotient, inverses
    and composites are built unchecked; each must be what the checked route
    builds, and pass the public constructor."""
    D = quotient_algebra(A, Congruence.diagonal(A))
    assert D.algebra.ops == A.ops and D.algebra.size == A.size
    assert D.algebra.name == "a/" + "|".join(str(x) for x in range(A.size))
    assert D.projection.mapping == tuple(range(A.size))
    assert_passes_cell_check(D.algebra)
    assert_checked(D.projection)

    L = all_congruences(A)
    cons = L.elements
    for _ in range(3):
        theta = data.draw(st.sampled_from(cons))
        t = L.index[theta.rep]
        sigma = data.draw(st.sampled_from([c for c, leq in zip(cons, L.leq) if leq[t]]))
        Q = quotient_algebra(A, sigma)
        got, direct = quotient_through(Q, theta), quotient_algebra(A, theta)
        assert vars(got.algebra) == vars(direct.algebra)
        assert got.projection == direct.projection
        assert_checked(got.projection)
        # a coarsening of sigma that is no congruence fails the check on A/sigma
        labels = data.draw(st.lists(st.integers(0, A.size - 1),
                                    min_size=sigma.nblocks, max_size=sigma.nblocks))
        rep = least_rep([labels[i] for i in sigma.block_index()])
        if all(c.rep != rep for c in cons):
            with pytest.raises(ValidationError, match="does not preserve"):
                quotient_through(Q, Congruence(A, rep))
        # a projection of A/sigma after the projection of A
        step = quotient_algebra(Q.algebra, congruence.quotient_lift(Q, theta))
        assert_checked(step.projection.compose(Q.projection))

    copy, iso = relabel(A, data.draw(st.permutations(range(A.size))))
    # the isomorphism search checks every cell before it yields a map
    for m in _isomorphisms(A, A, A.size):
        assert_checked(Homomorphism._built(A, A, m))
    assert_checked(iso_search(A, copy))
    # the pairing map of a factor pair, into the product of its quotients
    E = all_congruences(A).elements
    for i, js in factor_congruences(A).items():
        for j in js:
            pairing = decomposition_witness(A, E[i], E[j])["iso"]
            assert pairing.is_bijective()
            assert_checked(pairing)
    auts = automorphisms(A)[:4]
    assert_checked(iso.inverse())
    for g in auts:
        assert_checked(g.inverse())
        assert_checked(iso.compose(g))
        assert_checked(direct.projection.compose(g))
        for h in auts:
            assert_checked(g.compose(h))
    assert_checked(direct.projection.compose(iso.inverse()))


# the triple oracle reads only the two partitions, and the random algebras
# share most of theirs, so its verdicts are kept for the whole module
cached_factor_pair_verdict = functools.lru_cache(maxsize=None)(factor_pair_verdict)


@KERNEL_SETTINGS
@given(algebra_and_pairs())
def test_check_factor_pair_matches_triple_oracle(case):
    A, _ = case
    cons = sorted(brute_congruences(A))
    for r1, r2 in itertools.product(cons, repeat=2):
        got = check_factor_pair(A, Congruence(A, r1), Congruence(A, r2))
        assert got == cached_factor_pair_verdict(r1, r2, A.size), (r1, r2)


@KERNEL_SETTINGS
@given(algebra_and_pairs())
def test_factor_congruences_match_check_factor_pair(case):
    A, _ = case
    fc = factor_congruences(A)
    E = all_congruences(A).elements
    for i, theta in enumerate(E):
        expected = tuple(j for j, phi in enumerate(E) if check_factor_pair(A, theta, phi)["ok"])
        assert fc.get(i, ()) == expected, i
    # the table lists FC(A) ascending, with no member lacking a complement
    assert list(fc) == sorted(fc) and all(fc.values())


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


def cbs_case(data):
    """A random algebra of at most 4 elements and the operator kinds to run
    on it: con, fc, zcon, rel on x = x and, when A satisfies it,
    commutativity of its first binary operation."""
    size = data.draw(st.integers(1, 4))
    A = FiniteAlgebra("r", size, tables(data.draw, size, data.draw(signatures)))
    kinds = [OperatorKind("con"), OperatorKind("fc"), OperatorKind("zcon"),
             OperatorKind("rel", (parse_sentence("x = x"),))]
    binary = next((op.name for op in A.ops if op.arity == 2), None)
    if binary is not None:
        comm = OperatorKind("rel", (parse_sentence(f"({binary} x y) = ({binary} y x)"),))
        if satisfies(A, comm.sentences)[0]:
            kinds.append(comm)
    return A, kinds


@settings(KERNEL_SETTINGS, max_examples=40)
@given(st.data())
def test_cbs_verbs_match_the_general_searches(data):
    A, kinds = cbs_case(data)
    for kind in kinds:
        assert json_text(cbs_property_check(A, kind)) == json_text(cbs_property_search(A, kind))
        assert json_text(cbs_complete_check(A, kind)) == json_text(cbs_complete_search(A, kind))


@settings(KERNEL_SETTINGS, max_examples=30)
@given(st.data())
def test_cbs_sequence_matches_the_general_sequence(data):
    """The sequence is the general sequence of every automorphism f (None
    for the identity) seeded at theta = zeta = the diagonal, byte for byte,
    and both pass the laws."""
    A, kinds = cbs_case(data)
    diag = Congruence.diagonal(A)
    for kind in kinds:
        table = cbs_sequence(A, kind)
        assert validate_sequence(reported_sequence(A, kind)) == []
        for f in (None, *automorphisms(A)):
            general = general_cbs_sequence(A, f, diag, diag, kind)
            assert json_text(table) == json_text(general.to_report())
            assert validate_sequence(general) == []


REL_SENTENCES = ("x = x", "(f0 x y) = (f0 y x)", "(f0 (f0 x y) z) = (f0 x (f0 y z))")


@st.composite
def relative_case(draw):
    """An algebra of 1 to 4 elements with a binary f0, and a sentence it
    satisfies: any planted tables for x = x; for commutativity and
    associativity a relabelled cyclic group or chain semilattice, or else a
    symmetrized planted table or the first projection."""
    size = draw(st.integers(1, 4))
    sentence = draw(st.sampled_from(REL_SENTENCES))
    if sentence == "x = x":
        return FiniteAlgebra("r", size, tables(draw, size, [2, *draw(signatures)])), sentence
    perm = draw(st.permutations(range(size)))
    inv = {v: i for i, v in enumerate(perm)}
    family = draw(st.sampled_from(("group", "chain", "other")))
    if family == "group":
        f = lambda x, y: perm[(inv[x] + inv[y]) % size]
    elif family == "chain":
        f = lambda x, y: x if inv[x] >= inv[y] else y
    elif sentence == REL_SENTENCES[1]:
        (op,) = tables(draw, size, [2])
        f = lambda x, y: op.table[min(x, y) * size + max(x, y)]
    else:
        f = lambda x, y: x
    table = tuple(f(x, y) for x in range(size) for y in range(size))
    return FiniteAlgebra("r", size, [Operation("f0", 2, table)]), sentence


@settings(KERNEL_SETTINGS, max_examples=40)
@given(relative_case())
def test_relative_presheaf_reads_membership_off_k(case):
    """K(A) holds exactly the congruences whose quotients satisfy the
    sentence, so axiom1 holds with no sentence check of its own: satisfies
    runs once per distinct quotient table of A, of the relabelled copy and
    of each quotient, and never again per member of K(A)."""
    A, sentence = case
    kind = OperatorKind("rel", (parse_sentence(sentence),))
    calls = []
    real = congruence.satisfies

    def counted(B, sentences, budget):
        calls.append(B)
        return real(B, sentences, budget=budget)

    with pytest.MonkeyPatch.context() as mp:
        # every route counts, a sentence check in cbs itself too
        for module in (congruence, cbs):
            mp.setattr(module, "satisfies", counted, raising=False)
        got = presheaf_check(A, kind)
    assert got["conditions"]["axiom1"] == {"ok": True, "violations": []}
    (s,) = kind.sentences
    names = s.variables()
    quotients = [quotient_algebra(A, theta).algebra for theta in operator_eval(A, kind)]
    for Q in quotients:
        for values in itertools.product(range(Q.size), repeat=len(names)):
            env = dict(zip(names, values))
            assert naive_eval(Q, s.lhs, env) == naive_eval(Q, s.rhs, env)
    assert len(calls) == relative_sentence_checks(A, kind)


TERM_VARIABLES = ("x", "y", "z")


def random_term(draw, ops, depth):
    """A term over ops and the three variables, at most depth operations deep."""
    heads = [op for op in ops if depth > 0 or op.arity == 0]
    if not heads or draw(st.booleans()):
        return Term.var(draw(st.sampled_from(TERM_VARIABLES)))
    op = draw(st.sampled_from(heads))
    return Term.app(op.name, [random_term(draw, ops, depth - 1) for _ in range(op.arity)])


@st.composite
def sentences_case(draw):
    """An algebra of 1 to 4 elements with arities 0-3, and one or two
    sentences with 0 to 2 premises each.  A conclusion's right side is
    sometimes its left side, so that some sentences hold."""
    size = draw(st.integers(1, 4))
    ops = tables(draw, size, draw(st.lists(st.integers(0, 3), min_size=1, max_size=3)))
    A = FiniteAlgebra("r", size, ops)

    def equation():
        lhs = random_term(draw, ops, 2)
        return lhs, lhs if draw(st.booleans()) else random_term(draw, ops, 2)

    sentences = [Sentence(tuple(equation() for _ in range(draw(st.integers(0, 2)))), *equation())
                 for _ in range(draw(st.integers(1, 2)))]
    return A, sentences


@KERNEL_SETTINGS
@given(sentences_case())
def test_satisfies_matches_the_recursive_oracle(case):
    A, sentences = case
    assert satisfies(A, sentences) == naive_satisfies(A, sentences)


@st.composite
def presheaf_case(draw):
    size = draw(st.integers(1, 5))
    arities = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    A = FiniteAlgebra("r", size, tables(draw, size, arities))
    return A, draw(st.sampled_from([OperatorKind("con"), OperatorKind("fc"), OperatorKind("zcon")]))


@settings(KERNEL_SETTINGS, max_examples=30)
@given(presheaf_case(), st.data())
def test_presheaf_correspondence_matches_the_refinement_scan(case, data):
    A, kind = case

    def correspondence():
        got = presheaf_check(A, kind)["conditions"]["correspondence"]
        assert got == presheaf_correspondence(A, kind)
        return got

    correspondence()
    if A.size == 1:
        return
    # one lift replaced by another member of Con(A/sigma), on both sides
    ks = operator_eval(A, kind)
    sigma = data.draw(st.sampled_from([s for s in ks if not s.is_total()]))
    theta = data.draw(st.sampled_from([t for t in ks if rep_leq(sigma.rep, t.rep)]))
    Q = quotient_algebra(A, sigma)
    true = quotient_lift(Q, theta).rep
    wrong = data.draw(st.sampled_from([c.rep for c in all_congruences(Q.algebra) if c.rep != true]))
    key = tuple(Q.projection.mapping), theta.rep

    def wrong_lift(P, t):
        if (tuple(P.projection.mapping), t.rep) == key:
            return Congruence(P.algebra, wrong)
        return quotient_lift(P, t)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cbs, "quotient_lift", wrong_lift)
        mp.setattr(congruence, "quotient_lift", wrong_lift)
        assert not correspondence()["ok"]


@st.composite
def factor_case(draw):
    size = draw(st.integers(1, 5))
    arities = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    A = FiniteAlgebra("r", size, tables(draw, size, arities))
    return A, draw(st.sampled_from([OperatorKind("fc"), OperatorKind("zcon")]))


@settings(KERNEL_SETTINGS, max_examples=30)
@given(factor_case())
@example((corpus_algebra("chain3"), OperatorKind("zcon")))  # central, yet no factor pair
def test_factor_verdicts_match_factor_pair_scans(case):
    """The factor block of presheaf_check, for the two kinds that run it,
    and the centre's pair checks equal check_factor_pair run on every pair
    they list."""
    A, kind = case
    assert presheaf_check(A, kind)["conditions"]["factor"] == presheaf_factor(A, kind)
    report = z_con_report(A)
    assert report["pair_checks"] == center_pair_checks(A, report["center"])


def test_factor_block_lists_failing_quotient_pairs():
    """A reversal r and a collapse c of 8 elements: FC(A) has a sigma strictly
    between the diagonal and a factor congruence theta with a complement c
    for which theta ^ (c v sigma) != sigma, which no random algebra of at
    most 5 elements and no corpus file gives, so the factor block lists
    quotient pairs; both blocks agree with the oracles."""
    A = FiniteAlgebra("rc", 8, [Operation("r", 1, (7, 6, 5, 4, 3, 2, 1, 0)),
                                Operation("c", 1, (0, 0, 0, 0, 4, 4, 4, 4))])
    kind = OperatorKind("fc")
    assert len(all_congruences(A).elements) == 46
    report = presheaf_check(A, kind)
    assert report["failed_conditions"] == ["correspondence", "factor"]
    factor = report["conditions"]["factor"]
    assert len(factor["quotient_pairs"]) == 4
    assert factor["quotient_pairs"][0] == {
        "sigma": [[0, 1], [2, 3], [4, 5], [6, 7]],
        "theta": [[0, 1, 2, 3], [4, 5, 6, 7]],
        "complement": [[0, 4], [1, 6], [2, 5], [3, 7]],
        "pair_ok": False,
        "reason": "meet_not_diagonal",
        "in_operator": True,
    }
    assert factor == presheaf_factor(A, kind)
    assert report["conditions"]["correspondence"] == presheaf_correspondence(A, kind)
