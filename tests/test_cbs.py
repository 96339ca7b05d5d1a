import copy
import re

import pytest

from cbswb.algebra import (
    FiniteAlgebra,
    Homomorphism,
    Operation,
    iso_search,
    parse_sentence,
    power_algebra,
    quotient_algebra,
    relabel,
    satisfies,
)
from cbswb import cbs, congruence
from cbswb.cbs import (
    OperatorKind,
    boolean_sublattice_check,
    cbs_complete_check,
    cbs_property_check,
    cbs_sequence,
    f_hat,
    f_hat_inverse,
    operator_eval,
    presheaf_check,
)
from cbswb.congruence import (
    Congruence,
    CongruenceLattice,
    all_congruences,
    least_rep,
    principal_congruence,
    quotient_lift,
)
from cbswb.errors import BudgetError, FormatError, ValidationError
from cbswb.structure import z_con_report

from oracles import (CORPUS_NAMES, QuotientIso, automorphisms, cbs_property_direct, corpus_algebra,
                     f_hat_interval_check, infimum_in_k, presheaf_factor, relative_sentence_checks,
                     reported_sequence, sigma_bracket, validate_sequence)

COMM = "(+ x y) = (+ y x)"


def reps(ks):
    return {c.rep for c in ks}


def test_operator_kind_validation():
    assert OperatorKind("con").label() == "con"
    assert OperatorKind("fc").label() == "fc"
    assert OperatorKind("zcon").label() == "zcon"
    rel = OperatorKind("rel", (parse_sentence(COMM),))
    assert rel.label() == "rel[(+ x y) = (+ y x)]"
    with pytest.raises(ValidationError):
        OperatorKind("centre")
    with pytest.raises(ValidationError):
        OperatorKind("rel", ())
    with pytest.raises(FormatError):
        parse_sentence("x =", corpus_algebra("z4").signature())


def test_operator_eval_selectors():
    v4 = corpus_algebra("v4")
    assert len(operator_eval(v4, OperatorKind("con"))) == 5
    assert len(operator_eval(v4, OperatorKind("fc"))) == 5
    assert reps(operator_eval(v4, OperatorKind("zcon"))) == {
        (0, 1, 2, 3), (0, 0, 0, 0)}
    z4 = corpus_algebra("z4")
    assert reps(operator_eval(z4, OperatorKind("fc"))) == {(0, 1, 2, 3), (0, 0, 0, 0)}
    rel = operator_eval(z4, OperatorKind("rel", (parse_sentence(COMM),)))
    assert len(rel) == 3  # commutativity keeps all of Con(z4)
    # ordering is canonical: finest first
    keys = [c.key() for c in rel]
    assert keys == sorted(keys)


def test_operator_eval_rel_requires_membership():
    # z4 itself fails (x+x) = (y+y), so the diagonal quotient leaves the class
    z4 = corpus_algebra("z4")
    kind = OperatorKind("rel", (parse_sentence("(+ x x) = (+ y y)"),))
    message = re.escape("'z4' does not satisfy the relative sentences, "
                        "so the diagonal is missing from K(A)")
    # every CBS entry point reads K(A) before it computes anything
    for check in (operator_eval, presheaf_check, cbs_property_check, cbs_complete_check,
                  cbs_sequence):
        with pytest.raises(ValidationError, match=message):
            check(z4, kind)


def admitting(f, kind):
    """Members sigma of K(source) with source/sigma isomorphic to the target,
    and whether the kernel of f lies in K(source): a K-morphism has one."""
    ks = operator_eval(f.source, kind)
    hits = [s for s in ks if iso_search(quotient_algebra(f.source, s).algebra, f.target)]
    return hits, least_rep(f.mapping) in reps(ks)


def test_admissibility():
    z4 = corpus_algebra("z4")
    z2 = corpus_algebra("z2")
    proj = Homomorphism(z4, z2, [0, 1, 0, 1])
    hits, kernel_in_k = admitting(proj, OperatorKind("con"))
    assert hits and kernel_in_k
    assert hits[0].to_blocks_list() == [[0, 2], [1, 3]]
    # FC(z4) has no congruence with a two-element quotient
    hits_fc, kernel_in_fc = admitting(proj, OperatorKind("fc"))
    assert not hits_fc and not kernel_in_fc
    auto = automorphisms(z4)[1]
    hits_auto, _ = admitting(auto, OperatorKind("fc"))
    assert hits_auto and hits_auto[0].is_diagonal()


def test_f_hat_identity_case():
    A = corpus_algebra("v4")
    identity = Homomorphism(A, A, list(range(A.size)))
    for c in all_congruences(A).elements:
        for g in (identity, None):
            assert f_hat(A, g, c).rep == c.rep
            assert f_hat_inverse(A, g, c).rep == c.rep
    check = f_hat_interval_check(A, None, Congruence.diagonal(A), OperatorKind("fc"))
    assert check["ok"]
    assert check["onto_interval"] and check["inverse_roundtrip"]


def test_f_hat_through_nontrivial_automorphism():
    A = corpus_algebra("v4")
    theta = Congruence.diagonal(A)
    Q = quotient_algebra(A, theta).algebra
    for g in automorphisms(A):
        f = Homomorphism(A, Q, g.mapping)
        check = f_hat_interval_check(A, f, theta, OperatorKind("con"))
        assert check["ok"]
        # the pullbacks along f^-1 and f are the general f_hat and its loose
        # inverse, taken through A/theta
        general = QuotientIso(A, f, theta)
        for c in all_congruences(A).elements:
            image = f_hat(A, g, c)
            assert image.rep == general.fhat(c).rep
            assert f_hat_inverse(A, g, image).rep == c.rep
            assert f_hat_inverse(A, g, c).rep == general.fhat_inv(c).rep


def test_sigma_bracket_on_v4():
    v4 = corpus_algebra("v4")
    total = Congruence.total(v4)
    theta_a = principal_congruence(v4, 0, 1)
    got = sigma_bracket(v4, total, theta_a, OperatorKind("con"))
    assert reps(got) == {
        principal_congruence(v4, 0, 1).rep,
        principal_congruence(v4, 0, 2).rep,
        principal_congruence(v4, 0, 3).rep,
    }
    only_diag = sigma_bracket(v4, Congruence.diagonal(v4),
                              Congruence.diagonal(v4), OperatorKind("fc"))
    assert reps(only_diag) == {Congruence.diagonal(v4).rep}
    with pytest.raises(ValidationError):
        sigma_bracket(v4, theta_a, total, OperatorKind("con"))  # sigma above theta


def test_cbs_sequence_collapses_at_diagonal():
    for name in ("v4", "z4", "lat22"):
        A = corpus_algebra(name)
        state = reported_sequence(A, OperatorKind("fc"))
        assert state.stabilized and state.stabilized_at == 2
        assert all(s.is_diagonal() for s in state.sigmas + state.thetas[1:])
        assert all(d.is_total() for d in state.ds)
        assert state.complement_used.is_total()
        assert [c.rep for c in state.complement_options] == [Congruence.total(A).rep]
        assert validate_sequence(state) == []
        assert len(state.sigmas) == 8
        # every automorphism's f_hat fixes each term, so the sequence is every f's
        for g in automorphisms(A):
            terms = state.sigmas + state.thetas[1:] + list(state.neg_odd.values()) + state.ds
            assert all(f_hat(A, g, c) == c for c in terms)


def test_f_hat_rejects_a_map_that_is_no_automorphism():
    v4, z4 = corpus_algebra("v4"), corpus_algebra("z4")
    shifted, to_shifted = relabel(z4, [1, 2, 3, 0])
    assert not shifted.same_tables(z4)
    onto_quotient = Homomorphism(v4, quotient_algebra(v4, Congruence.diagonal(v4)).algebra,
                                 list(range(4)))
    for A, f in ((v4, automorphisms(z4)[1]),  # a map of another algebra
                 (v4, Homomorphism(v4, v4, [0, 0, 0, 0])),  # not bijective
                 (z4, to_shifted),  # onto other tables
                 (v4, onto_quotient)):  # onto equal tables of another algebra
        for call in (lambda: f_hat(A, f, Congruence.total(A)),
                     lambda: f_hat_inverse(A, f, Congruence.total(A))):
            with pytest.raises(ValidationError, match="f is not an automorphism of A"):
                call()


def test_cbs_complete_reports_the_cbs_sequence_table():
    """cbs_sequence and cbs-complete's certificate write one table, and it
    passes the sequence laws, on every corpus algebra and every kind."""
    for name in CORPUS_NAMES:
        A = corpus_algebra(name)
        binary = [op.name for op in A.ops if op.arity == 2][:1]
        sentence = f"({binary[0]} x y) = ({binary[0]} y x)" if binary else "x = x"
        rel = OperatorKind("rel", (parse_sentence(sentence),))
        assert satisfies(A, rel.sentences)[0], name
        for kind in (OperatorKind("con"), OperatorKind("fc"), OperatorKind("zcon"), rel):
            table = cbs_sequence(A, kind)
            assert cbs_complete_check(A, kind)["certificate"]["sequence"] == table
            assert validate_sequence(reported_sequence(A, kind)) == [], (name, kind.label())


def test_validate_sequence_flags_mutations():
    A = corpus_algebra("v4")
    state = reported_sequence(A, OperatorKind("fc"))

    bad = copy.copy(state)
    bad.sigmas = list(state.sigmas)
    bad.sigmas[4] = Congruence.total(A)
    msgs = validate_sequence(bad)
    assert any("sigma" in m for m in msgs)

    bad2 = copy.copy(state)
    bad2.ds = list(state.ds)
    bad2.ds[1] = Congruence.diagonal(A)
    msgs2 = validate_sequence(bad2)
    assert any("d[" in m for m in msgs2)

    bad3 = copy.copy(state)
    bad3.neg_odd = dict(state.neg_odd)
    bad3.neg_odd[3] = Congruence.diagonal(A)
    msgs3 = validate_sequence(bad3)
    assert msgs3


def test_validate_sequence_reports_malformed_tables():
    A = corpus_algebra("v4")
    state = reported_sequence(A, OperatorKind("fc"))
    odd = len(state.ds)

    extra = copy.copy(state)
    extra.ds = state.ds + [state.ds[-1]]
    assert validate_sequence(extra) == [f"{odd + 1} d-terms for {odd} odd indices"]

    gap = copy.copy(state)
    gap.neg_odd = {i: c for i, c in state.neg_odd.items() if i != 3}
    assert validate_sequence(gap) == [
        f"neg sigma is not indexed by the odd indices below {len(state.sigmas)}"
    ]

    short = copy.copy(state)
    short.thetas = state.thetas[:-2]
    assert validate_sequence(short) == [
        f"{len(state.sigmas) - 2} thetas for {len(state.sigmas)} sigmas"
    ]


def test_infimum_in_k_takes_the_greatest_member_below_the_d_terms():
    # Con(boole2^3) is the Boolean lattice 2^3; with K(A) = {diagonal, a,
    # total} the meet a v b of the d-terms lies outside K(A), and a is the
    # greatest member of K(A) below it
    A = power_algebra(corpus_algebra("boole2"), 3)
    L = all_congruences(A)
    E = L.elements
    atoms = [i for i in range(L.size) if sum(row[i] for row in L.leq) == 2]
    assert len(E) == 8 and len(atoms) == 3
    a, b = atoms[:2]
    ds = [E[L.join(a, b)]]
    assert infimum_in_k(L, [L.bottom, a, L.top], ds) == (E[a], "greatest_in_k")
    # with both atoms in K(A) both lie below a v b and neither is the greatest
    assert infimum_in_k(L, [L.bottom, a, b, L.top], ds) == (None, "does not exist")


def test_cbs_property_finite_triviality():
    for name in ("z4", "v4", "chain3", "boole2", "one"):
        A = corpus_algebra(name)
        for kind in (OperatorKind("con"), OperatorKind("fc"), OperatorKind("zcon")):
            got = cbs_property_check(A, kind)
            assert got["holds"], (name, kind.label())
            assert got["nontrivial"] is False
            # the diagonal is the only self-isomorphic collapse of a finite algebra
            assert got["self_isomorphic"] == [Congruence.diagonal(A).to_blocks_list()]
            assert got["checked"] >= 1 and got["witnesses"] == []


def test_cbs_property_direct_form_agrees():
    for name in ("z4", "v4", "chain3"):
        A = corpus_algebra(name)
        partners = []
        for theta in all_congruences(A).elements:
            partners.append(quotient_algebra(A, theta).algebra)
        got = cbs_property_direct(A, partners, OperatorKind("con"))
        assert got["holds"]
        assert got["instances"] >= 1
        assert got["failures"] == []
    # different signatures are skipped, not failures
    got = cbs_property_direct(corpus_algebra("z4"), [corpus_algebra("chain2")], OperatorKind("con"))
    assert got["instances"] == 0


def corresp2(A, sigma, theta):
    """theta' = theta/sigma, whether it lies in Con(A/sigma), and an
    isomorphism A -> (A/sigma)/theta' or None."""
    Q = quotient_algebra(A, sigma)
    theta_prime = quotient_lift(Q, theta)
    in_k = theta_prime.rep in reps(operator_eval(Q.algebra, OperatorKind("con")))
    return theta_prime, in_k, iso_search(A, quotient_algebra(Q.algebra, theta_prime).algebra)


def test_corresp2_witness():
    z4 = corpus_algebra("z4")
    diag = Congruence.diagonal(z4)
    theta_prime, in_k, hit = corresp2(z4, diag, diag)
    assert in_k and hit is not None
    assert theta_prime.is_diagonal()
    # theta/sigma always lands in the quotient operator, but the iso back to
    # A needs A ~ A/theta, which fails for a proper collapse of a finite algebra
    sigma = principal_congruence(z4, 0, 2)
    _, in_k, hit = corresp2(z4, sigma, Congruence.total(z4))
    assert in_k and hit is None
    with pytest.raises(ValidationError):
        corresp2(z4, Congruence.total(z4), sigma)  # sigma above theta


def test_boolean_sublattice_check():
    lat = corpus_algebra("lat22")
    ks = operator_eval(lat, OperatorKind("fc"))
    verdict = boolean_sublattice_check(lat, ks)
    assert verdict["ok"]
    v4 = corpus_algebra("v4")
    bad = boolean_sublattice_check(v4, operator_eval(v4, OperatorKind("con")))
    assert not bad["ok"] and bad["reason"] == "complement_not_unique"


def test_boolean_sublattice_check_reports_a_missing_bound_first():
    z4 = corpus_algebra("z4")
    diag, total = Congruence.diagonal(z4), Congruence.total(z4)
    outside = Congruence(z4, (0, 0, 2, 3))  # {0, 1} {2} {3} is no congruence of z4
    for family, reason in (([total, outside], "missing_diagonal"),
                           ([diag, outside], "missing_total")):
        assert boolean_sublattice_check(z4, family) == {
            "ok": False, "reason": reason, "witness": None}
    with pytest.raises(ValidationError, match="outside Con"):
        boolean_sublattice_check(z4, [diag, total, outside])


def test_con_is_enumerated_once_per_algebra(monkeypatch):
    z4 = corpus_algebra("z4")
    assert all_congruences(z4) is all_congruences(z4)
    # the carrier cap is checked before the kept lattice is returned
    with pytest.raises(BudgetError):
        all_congruences(z4, max_size=3)
    # a lattice over the member budget is not kept, so every call refuses it
    id8 = FiniteAlgebra("id8", 8, [Operation("id", 1, tuple(range(8)))])
    for _ in range(2):
        with pytest.raises(BudgetError):
            all_congruences(id8)

    built = []
    init = CongruenceLattice.__init__

    def counted(self, algebra, elements):
        built.append(algebra)
        init(self, algebra, elements)

    monkeypatch.setattr(CongruenceLattice, "__init__", counted)
    z2_3 = power_algebra(corpus_algebra("z2"), 3)
    assert cbs_complete_check(z2_3)["verdict"] == "certified"
    v4 = corpus_algebra("v4")
    assert not presheaf_check(v4, OperatorKind("fc"), boolean=True)["ok"]
    # the built list keeps every algebra alive, so ids are not reused
    assert any(A is z2_3 for A in built) and any(A is v4 for A in built)
    assert len({id(A) for A in built}) == len(built)


def test_factor_pairs_are_tested_once_per_lattice(monkeypatch):
    tested = []
    factor_pair = CongruenceLattice.factor_pair

    def counted(L, i, j):
        tested.append((L, i, j))  # holding L keeps each lattice distinct
        return factor_pair(L, i, j)

    monkeypatch.setattr(CongruenceLattice, "factor_pair", counted)
    report = presheaf_check(power_algebra(corpus_algebra("z3"), 2), OperatorKind("fc"),
                            max_size=16)
    assert report["ok"] and report["conditions"]["factor"]["ok"]
    z_con_report(power_algebra(corpus_algebra("z2"), 3))
    assert tested and len(set(tested)) == len(tested)


def test_cbs_complete_reads_k_once(monkeypatch):
    read = []
    factor_congruences = cbs.factor_congruences

    def counted(A, *args, **kwargs):
        read.append(A)
        return factor_congruences(A, *args, **kwargs)

    monkeypatch.setattr(cbs, "factor_congruences", counted)
    for name in CORPUS_NAMES:
        A = corpus_algebra(name)
        read.clear()
        assert cbs_complete_check(A)["verdict"] == "certified"
        assert read == [A], name
    # the K(A) read is the verb's one budget site: no isomorphism search runs
    z2_4 = power_algebra(corpus_algebra("z2"), 4)
    with pytest.raises(BudgetError) as err:
        cbs_complete_check(z2_4)
    assert str(err.value) == (
        "congruence enumeration: carrier reached 16, over the 8-element budget")


def test_cbs_complete_certifies_corpus_algebras():
    for name in ("v4", "z4", "lat22", "one"):
        A = corpus_algebra(name)
        report = cbs_complete_check(A)
        assert report["verdict"] == "certified", name
        cert = report["certificate"]
        assert all(e["ok"] for e in cert["equations"])
        assert cert["conclusion"]["ok"]
        assert len(cert["equations"]) == 4
    # boolean operators suppress the extra factor-pair requirement
    lat = corpus_algebra("lat22")
    report = cbs_complete_check(lat)
    assert report["boolean_operator"] is True
    assert report["certificate"]["condition2_required"] is False


def test_presheaf_fc_on_modular_corpus():
    for name in CORPUS_NAMES:
        A = corpus_algebra(name)
        if not all_congruences(A).modular:
            continue
        got = presheaf_check(A, OperatorKind("fc"))
        assert got["ok"], (name, got["failed_conditions"])
        assert got["conditions"]["factor"]["ok"]


def test_presheaf_con_everywhere_and_rel_on_groups():
    for name in CORPUS_NAMES:
        A = corpus_algebra(name)
        got = presheaf_check(A, OperatorKind("con"))
        assert got["ok"], (name, got["failed_conditions"])
    for name in ("z2", "z3", "z4", "v4"):
        A = corpus_algebra(name)
        got = presheaf_check(A, OperatorKind("rel", (parse_sentence(COMM),)))
        assert got["ok"], (name, got["failed_conditions"])


@pytest.mark.parametrize("name, sentence, calls", [
    ("z4", COMM, 12),
    ("v4", "(+ (+ x y) z) = (+ x (+ y z))", 17),
    ("z4ring", "(mul x y) = (mul y x)", 12),
])
def test_relative_presheaf_checks_each_quotient_once(monkeypatch, name, sentence, calls):
    # K(A), K of the relabelled copy and K of each quotient run one sentence
    # check per distinct quotient table; axiom1 reads K(A) and checks nothing
    # again
    seen = []
    real = congruence.satisfies

    def counted(B, sentences, budget):
        seen.append(B.name)
        return real(B, sentences, budget=budget)

    for module in (congruence, cbs):
        monkeypatch.setattr(module, "satisfies", counted, raising=False)
    A, kind = corpus_algebra(name), OperatorKind("rel", (parse_sentence(sentence),))
    got = presheaf_check(A, kind)
    assert got["ok"] and got["conditions"]["axiom1"] == {"ok": True, "violations": []}
    assert len(seen) == calls == relative_sentence_checks(A, kind)


def test_presheaf_reports_sampling_note():
    v4 = corpus_algebra("v4")
    got = presheaf_check(v4, OperatorKind("fc"))
    inv = got["conditions"]["iso_invariance"]
    assert inv["sampled"] is True  # invariance is spot-checked, not proven
    assert inv["automorphisms"] == 6
    assert inv["violations"] == []


def test_presheaf_reports_a_relabelled_copy_whose_k_differs(monkeypatch):
    real = cbs._k_positions

    def drop_on_copy(B, kind, max_size):
        L, at = real(B, kind, max_size=max_size)
        # the relabelled copy loses its last member; A and its quotients keep theirs
        return (L, at[:-1]) if B.name == "z4~" else (L, at)

    monkeypatch.setattr(cbs, "_k_positions", drop_on_copy)
    got = presheaf_check(corpus_algebra("z4"), OperatorKind("con"))
    assert got["failed_conditions"] == ["iso_invariance"]
    assert got["conditions"]["iso_invariance"] == {
        "ok": False, "sampled": True, "automorphisms": 2,
        "violations": [{"target": "z4~", "mapping": [1, 2, 3, 0]}],
    }


def test_presheaf_boolean_condition():
    lat = corpus_algebra("lat22")
    got = presheaf_check(lat, OperatorKind("fc"), boolean=True)
    assert got["ok"]
    v4 = corpus_algebra("v4")
    got2 = presheaf_check(v4, OperatorKind("con"), boolean=True)
    assert not got2["ok"]
    assert "boolean" in got2["failed_conditions"]


def test_presheaf_lifts_each_congruence_once_and_reads_factor_verdicts_off_the_table(monkeypatch):
    calls = {"lift": 0, "pair": 0}
    lift, pair = cbs.quotient_lift, cbs.check_factor_pair

    def counted_lift(Q, theta):
        calls["lift"] += 1
        return lift(Q, theta)

    def counted_pair(A, t1, t2):
        calls["pair"] += 1
        return pair(A, t1, t2)

    monkeypatch.setattr(cbs, "quotient_lift", counted_lift)
    monkeypatch.setattr(cbs, "check_factor_pair", counted_pair)
    z2_3, fc = power_algebra(corpus_algebra("z2"), 3), OperatorKind("fc")
    assert presheaf_check(z2_3, fc)["ok"]
    # one lift per member of [sigma, total], for each sigma in K(A), and no
    # pair check: every quotient pair passes, so none is listed
    L, at = cbs._k_positions(z2_3, fc)
    assert calls == {"lift": sum(sum(L.leq[i]) for i in at), "pair": 0} == {"lift": 66, "pair": 0}
    # the 8-element algebra of test_factor_block_lists_failing_quotient_pairs:
    # one pair check per listed quotient pair
    rc = FiniteAlgebra("rc", 8, [Operation("r", 1, (7, 6, 5, 4, 3, 2, 1, 0)),
                                 Operation("c", 1, (0, 0, 0, 0, 4, 4, 4, 4))])
    calls["pair"] = 0
    pairs = presheaf_check(rc, fc)["conditions"]["factor"]["quotient_pairs"]
    assert calls["pair"] == len(pairs) == 4


def test_presheaf_lists_a_factor_pair_outside_the_quotient_operator(monkeypatch):
    real = cbs._k_positions

    def drop_total(B, kind, max_size):
        L, at = real(B, kind, max_size=max_size)
        # only the quotients of v4 by an atom lose their total congruence; A,
        # A/diagonal and the relabelled copy have 4 elements and keep theirs
        return (L, at[:-1]) if B.size == 2 else (L, at)

    monkeypatch.setattr(cbs, "_k_positions", drop_total)
    v4, fc = corpus_algebra("v4"), OperatorKind("fc")
    factor = presheaf_check(v4, fc)["conditions"]["factor"]
    assert factor == presheaf_factor(v4, fc)
    # sigma = theta an atom and c another atom lift to (diagonal, total) on
    # A/sigma: a factor pair, whose total congruence K(A/sigma) lacks
    atoms = sorted(c.to_blocks_list() for c in all_congruences(v4) if c.nblocks == 2)
    assert {
        "sigma": atoms[0], "theta": atoms[0], "complement": atoms[1],
        "pair_ok": True, "reason": None, "in_operator": False,
    } in factor["quotient_pairs"]


def test_presheaf_counts_a_lift_outside_the_quotient_lattice_as_an_order_failure(monkeypatch):
    z4 = corpus_algebra("z4")
    total = Congruence.total(z4).rep
    lift = cbs.quotient_lift

    def outside(Q, theta):
        if Q.algebra.size == 4 and theta.rep == total:
            return Congruence(Q.algebra, (0, 0, 2, 3))  # no congruence of z4/diagonal
        return lift(Q, theta)

    monkeypatch.setattr(cbs, "quotient_lift", outside)
    got = presheaf_check(z4, OperatorKind("con"))["conditions"]["correspondence"]
    assert got == {"ok": False, "violations": [{
        "sigma": [[0], [1], [2], [3]],
        "missing_in_quotient": [[[0, 1, 2, 3]]],
        "extra_in_quotient": [],
        "order_isomorphic": False,
    }]}
