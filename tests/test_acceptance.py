"""Acceptance battery: one test per numbered criterion, each prints a verdict line.

Every check here recomputes its facts from scratch (oracles in oracles.py, or
frozen worked examples) so a regression anywhere in the package turns exactly
one criterion line red.
"""

import itertools
import random
import time

import pytest

from cbswb.algebra import FiniteAlgebra, Operation, iso_search, parse_sentence, satisfies
from cbswb.cbs import OperatorKind, cbs_property_check
from cbswb.congruence import Congruence, all_congruences, compatibility_witness, transport
from cbswb.omega import (AffineFamily, countable_infimum, omega_cbs_run, omega_validate,
                         quasicyclic_suite, truncate_validate)
from cbswb.pset import PeriodicSet
from cbswb.structure import bfc_check, check_factor_pair, decomposition_witness, factor_congruences

from oracles import (CORPUS_NAMES, all_homs, automorphisms, brute_congruences, corpus_algebra,
                     members, reported_sequence, validate_sequence)

CORPUS = {name: corpus_algebra(name) for name in CORPUS_NAMES}
GROUPS = ("z2", "z3", "z4", "v4")


def verdict(n, ok, detail):
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


# -- 1: congruence lattices agree with the partition oracle ---------------------


def test_criterion_01_congruence_oracle_equivalence():
    checked = 0
    for name, A in CORPUS.items():
        if A.size > 5:
            continue
        got = {c.rep for c in all_congruences(A)}
        want = brute_congruences(A)
        assert got == want, name
        checked += 1
    verdict(1, checked >= 10, f"exact lattice match on {checked} corpus algebras")


# -- 2: factor-congruence facts on the four reference algebras ------------------


def test_criterion_02_factor_congruence_facts():
    z4 = CORPUS["z4"]
    assert len(all_congruences(z4)) == 3
    fc_z4 = {all_congruences(z4).elements[i].rep for i in factor_congruences(z4)}
    assert fc_z4 == {Congruence.diagonal(z4).rep, Congruence.total(z4).rep}

    v4 = CORPUS["v4"]
    lattice = all_congruences(v4)
    assert len(lattice) == 5
    assert {lattice.elements[i].rep for i in factor_congruences(v4)} == {c.rep for c in lattice}
    bfc = bfc_check(v4)
    assert not bfc["ok"] and bfc["reason"] == "complement_not_unique"
    assert len(bfc["complements"]) >= 2

    chain3 = CORPUS["chain3"]
    low = Congruence.from_blocks(chain3, [[0, 1], [2]])
    high = Congruence.from_blocks(chain3, [[0], [1, 2]])
    failed = check_factor_pair(chain3, low, high)
    assert not failed["ok"] and failed["reason"] == "not_permutable"
    assert failed["witness"] is not None and failed["permutable"] is False

    lat22 = CORPUS["lat22"]
    fc_lat = [all_congruences(lat22).elements[i] for i in factor_congruences(lat22)]
    assert len(fc_lat) == 4
    assert bfc_check(lat22)["ok"]
    witnessed = 0
    for t1, t2 in itertools.combinations(fc_lat, 2):
        if not check_factor_pair(lat22, t1, t2)["ok"]:
            continue
        w = decomposition_witness(lat22, t1, t2)
        assert w["iso"].is_bijective()
        witnessed += 1
    assert witnessed >= 2  # (diagonal, total) and the nontrivial pair

    verdict(2, True, "z4, v4, chain3 and lat22 factor facts all verified")


# -- 3: transport is functorial on two hundred triples --------------------------


def test_criterion_03_transport_functoriality():
    pool = ["z2", "z4", "v4", "chain2", "chain3"]
    cons = {n: all_congruences(CORPUS[n]).elements for n in pool}
    triples = 0
    for na, nb, nc in itertools.product(pool, repeat=3):
        A, B, C = CORPUS[na], CORPUS[nb], CORPUS[nc]
        fs, gs = all_homs(A, B), all_homs(B, C)
        for f in fs[:3]:
            for g in gs[:3]:
                gf = g.compose(f)
                for theta in cons[nc]:
                    lhs = transport(gf, theta)
                    rhs = transport(f, transport(g, theta))
                    assert lhs.rep == rhs.rep
                    triples += 1

    for n in pool:
        A = CORPUS[n]
        ident = iso_search(A, A, max_size=8)
        for theta in cons[n]:
            assert transport(ident, theta).rep == theta.rep
        for g in automorphisms(A, max_size=8):
            inv = g.inverse()
            for theta in cons[n]:
                # pushforward along g, the image of theta, is the pullback along g^-1
                image = Congruence.from_blocks(A, [[g(x) for x in b] for b in theta.blocks])
                assert image.rep == transport(inv, theta).rep
        for t1, t2 in itertools.combinations(cons[n], 2):
            if compose_is_total(A, t1, t2):
                inv = automorphisms(A, max_size=8)[-1].inverse()
                p1 = transport(inv, t1)
                p2 = transport(inv, t2)
                assert compose_is_total(A, p1, p2)

    verdict(3, triples >= 200, f"composition, identity and iso laws on {triples} triples")


def compose_is_total(A, t1, t2):
    from cbswb.congruence import compose

    rel, permutable = compose(t1, t2)
    return len(rel) == A.size ** 2 and permutable


# -- 4: presheaf axioms over the corpus -----------------------------------------


def test_criterion_04_presheaf_axioms():
    from cbswb.cbs import presheaf_check

    modular_checked = 0
    for name, A in CORPUS.items():
        if not all_congruences(A).modular:
            continue
        report = presheaf_check(A, OperatorKind("fc"))
        assert report["ok"], (name, report["failed_conditions"])
        modular_checked += 1

    comm = parse_sentence("(+ x y) = (+ y x)")
    for name in GROUPS:
        A = CORPUS[name]
        full = presheaf_check(A, OperatorKind("con"))
        assert full["conditions"]["correspondence"]["ok"], name
        rel = presheaf_check(A, OperatorKind("rel", (comm,)))
        assert rel["conditions"]["correspondence"]["ok"], name

    verdict(4, modular_checked >= 10,
            f"factor presheaf on {modular_checked} modular lattices, "
            f"correspondence for full and relative operators on {len(GROUPS)} groups")


# -- 5: sequence laws hold on every run ------------------------------------------


def test_criterion_05_sequence_laws():
    runs = violations = 0
    for name, A in CORPUS.items():
        for kind in (OperatorKind("con"), OperatorKind("fc"), OperatorKind("zcon")):
            state = reported_sequence(A, kind)
            bad = validate_sequence(state)
            assert bad == [], (name, kind.label(), bad)
            assert state.stabilized
            runs += 1
            violations += len(bad)

    z2 = CORPUS["z2"]
    z3 = CORPUS["z3"]
    symbolic = [
        (z2, 1, PeriodicSet.from_finite([0])),
        (z2, 2, PeriodicSet.from_finite([0])),
        (z2, 2, PeriodicSet.from_finite([0, 1])),
        (z2, 2, PeriodicSet.empty()),
        (z3, 3, PeriodicSet.from_finite([1])),
    ]
    for A, k, zeta in symbolic:
        run = omega_cbs_run(A, k, zeta)
        bad = omega_validate(run)
        assert bad == [], (A.name, k, bad)
        assert all(e["ok"] for e in run.equations)
        runs += 1
        violations += len(bad)

    verdict(5, violations == 0, f"0 violations across {runs} finite and symbolic runs")


# -- 6: the CBS property is trivially certified on finite corpus algebras ---------


def rel_kind_for(A):
    binary = next((op for op in A.ops if op.arity == 2), None)
    if binary is not None:
        comm = parse_sentence(f"({binary.name} x y) = ({binary.name} y x)")
        if satisfies(A, [comm])[0]:
            return OperatorKind("rel", (comm,))
    return OperatorKind("rel", (parse_sentence("x = x"),))


def test_criterion_06_cbs_property_all_kinds():
    checked = 0
    for name, A in CORPUS.items():
        kinds = [OperatorKind("con"), OperatorKind("fc"), OperatorKind("zcon"),
                 rel_kind_for(A)]
        for kind in kinds:
            report = cbs_property_check(A, kind)
            assert report["holds"], (name, kind.label(), report)
            assert report["nontrivial"] is False, (name, kind.label())
            checked += 1
    verdict(6, checked == 4 * len(CORPUS),
            f"holds without nontrivial instances, {checked} algebra/kind pairs")


# -- 7: the countable-power run with shift 2 ---------------------------------------


def test_criterion_07_symbolic_run_exact():
    t0 = time.perf_counter()
    z2 = CORPUS["z2"]
    run = omega_cbs_run(z2, 2, PeriodicSet.from_finite([0]))

    for n, s in enumerate(run.sigmas):
        assert s == PeriodicSet.block(0, n), f"sigma[{n}]"
    for n, d in enumerate(run.ds):
        assert d == PeriodicSet.naturals().difference(PeriodicSet.from_finite([2 * n]))
    odds = PeriodicSet(0, (), 2, (1,))
    evens = PeriodicSet(0, (), 2, (0,))
    assert run.sigma_zeta == PeriodicSet.block(0, 2).union(odds)
    assert run.chi == odds
    assert run.neg_chi == evens
    assert run.neg_sigma_zeta == evens.difference(PeriodicSet.from_finite([0]))
    assert omega_validate(run) == []

    # independent per-coordinate infimum oracle on 0..256
    family = AffineFamily(run.ds[1], run.k, run.theta)
    window = 600
    fixed = members(family.fixed, window)
    term = members(family.v1, window)
    alive = set(range(257))
    for _ in range(2 * (257 // family.k + 2)):
        alive &= term
        term = {x + family.k for x in term if x + family.k < window} | fixed
    assert members(countable_infimum(family)[0], 257) == alive
    assert members(run.sigma_zeta, 257) == alive

    for m in (8, 16):
        result = truncate_validate(run, m)
        assert result["ok"], (m, result["failures"])

    elapsed = time.perf_counter() - t0
    verdict(7, elapsed < 5.0,
            f"exact tables, infimum oracle 0..256, truncations m=8,16 in {elapsed:.2f}s")


# -- 8: quasi-cyclic truncations ----------------------------------------------------


def test_criterion_08_quasicyclic_pattern():
    ran = 0
    for p, m in ((2, 8), (3, 5)):
        for n in (1, 2, 3):
            suite = quasicyclic_suite(p, n, m)
            assert suite["ok"], (p, n, m)
            assert suite["kernel_recomputed_ok"], (p, n, m)
            assert suite["quotient"]["statement"] == f"z({p}^{m})/z({p}^{n}) ~ z({p}^{m - n})"
            ran += 1
    verdict(8, ran == 6, "pseudo-simple pattern with kernel recomputation, p=2 m=8 and p=3 m=5")


# -- 9: mutation sensitivity ----------------------------------------------------------


LAWS = {
    "z2": ["(+ (+ x y) z) = (+ x (+ y z))", "(+ x y) = (+ y x)"],
    "z3": ["(+ (+ x y) z) = (+ x (+ y z))", "(+ x y) = (+ y x)"],
    "z4": ["(+ (+ x y) z) = (+ x (+ y z))", "(+ x y) = (+ y x)"],
    "v4": ["(+ (+ x y) z) = (+ x (+ y z))", "(+ x y) = (+ y x)", "(+ x x) = (+ y y)"],
    "chain2": None,
    "chain3": None,
    "lat22": None,
    "boole2": ["(and x y) = (and y x)", "(or x y) = (or y x)",
               "(and x (or x y)) = x", "(or x (and x y)) = x",
               "(not (not x)) = x", "(and x (not x)) = (0)", "(or x (not x)) = (1)"],
    "semilat2": ["(* x y) = (* y x)", "(* (* x y) z) = (* x (* y z))", "(* x x) = x"],
    "z4ring": ["(add (add x y) z) = (add x (add y z))", "(add x y) = (add y x)",
               "(mul (mul x y) z) = (mul x (mul y z))",
               "(mul x (add y z)) = (add (mul x y) (mul x z))",
               "(add x (neg x)) = (0)"],
}
LATTICE_LAWS = ["(meet x y) = (meet y x)", "(join x y) = (join y x)",
                "(meet (meet x y) z) = (meet x (meet y z))",
                "(join (join x y) z) = (join x (join y z))",
                "(meet x (join x y)) = x", "(join x (meet x y)) = x",
                "(meet x (bot)) = (bot)", "(join x (top)) = (top)"]


def fc_reps(A):
    return {all_congruences(A).elements[i].rep for i in factor_congruences(A)}


def frozen_facts(A):
    laws = LAWS[A.name] if LAWS.get(A.name) else LATTICE_LAWS
    return {
        "laws": [parse_sentence(t) for t in laws],
        "con": {c.rep for c in all_congruences(A)},
        "fc": fc_reps(A),
    }


def mutate_table(A, rng):
    ops = [op for op in A.ops if op.arity >= 1]
    op = rng.choice(ops)
    table = list(op.table)
    cell = rng.randrange(len(table))
    table[cell] = rng.choice([v for v in range(A.size) if v != table[cell]])
    new_ops = [
        Operation(o.name, o.arity, tuple(table) if o is op else o.table) for o in A.ops
    ]
    return FiniteAlgebra(A.name, A.size, new_ops), (op.name, cell)


def detect_table_mutation(mutant, facts):
    for law in facts["laws"]:
        holds, witness = satisfies(mutant, [law])
        if not holds:
            return {"check": "defining law", "witness": witness}
    for rep in facts["con"]:
        witness = compatibility_witness(mutant, list(rep))
        if witness is not None:
            return {"check": "frozen congruence compatibility", "witness": witness}
    got = {c.rep for c in all_congruences(mutant)}
    if got != facts["con"]:
        delta = got.symmetric_difference(facts["con"])
        return {"check": "congruence lattice", "witness": sorted(delta)}
    got_fc = fc_reps(mutant)
    if got_fc != facts["fc"]:
        return {"check": "factor congruences",
                "witness": sorted(got_fc.symmetric_difference(facts["fc"]))}
    return None


def test_criterion_09_mutation_sensitivity():
    rng = random.Random(0xC9)
    mutable = [A for A in CORPUS.values() if any(op.arity >= 1 for op in A.ops)]
    facts = {A.name: frozen_facts(A) for A in mutable}

    detections = []
    for _ in range(30):
        A = rng.choice(mutable)
        mutant, where = mutate_table(A, rng)
        hit = detect_table_mutation(mutant, facts[A.name])
        assert hit is not None, (A.name, where)
        assert hit["witness"], (A.name, where)
        detections.append((A.name, where, hit["check"]))

    z2 = CORPUS["z2"]
    seeds = [(1, PeriodicSet.from_finite([0])), (2, PeriodicSet.from_finite([0])),
             (2, PeriodicSet.from_finite([0, 1])), (3, PeriodicSet.from_finite([1]))]
    for i in range(24):
        k, zeta = seeds[i % len(seeds)]
        run = omega_cbs_run(z2, k, zeta)
        n = rng.randrange(2, len(run.sigmas))
        coordinate = PeriodicSet.from_finite([rng.randrange(0, 8)])
        if coordinate.subset(run.sigmas[n]):
            run.sigmas[n] = run.sigmas[n].difference(coordinate)
        else:
            run.sigmas[n] = run.sigmas[n].union(coordinate)
        bad = omega_validate(run)
        assert bad, (k, zeta.render(), n)
        detections.append(("omega run", f"sigma[{n}]", bad[0]))

    verdict(9, len(detections) >= 50,
            f"{len(detections)} single-entry mutations, all detected with witnesses")
