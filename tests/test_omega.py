"""Eventually periodic coordinate sets and the symbolic power machinery."""

import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbswb import cli, congruence, omega, pset
from cbswb.algebra import FiniteAlgebra, Homomorphism, Operation, power_algebra
from cbswb.congruence import (Congruence, compatibility_witness, congruence_join, congruence_meet,
                              least_rep)
from cbswb.errors import BudgetError, FormatError, ValidationError
from cbswb.omega import (AffineFamily, OmegaCongruence, QuasiCyclic, ShiftIso, countable_infimum,
                         omega_cbs_run, omega_validate, quasicyclic_suite, truncate_validate)
from cbswb.pset import PeriodicSet
from cbswb.structure import check_factor_pair

from oracles import (Pruefer, apply_raw, corpus_algebra, countable_infimum_sets, members,
                     omega_validate_sets, raw_members, rep_leq, replaced, truncation_pairing_entry)
from test_pset_random import raw_sets

WINDOW = 64

N = PeriodicSet.naturals()
E = PeriodicSet.empty()


def z(n, name=None):
    table = tuple((a + b) % n for a in range(n) for b in range(n))
    return FiniteAlgebra(name or f"z{n}", n, [Operation("+", 2, table)])


def rand_set(rng):
    threshold = rng.randrange(0, 7)
    prefix = [rng.random() < 0.5 for _ in range(threshold)]
    period = rng.randrange(1, 7)
    residues = [r for r in range(period) if rng.random() < 0.5]
    return PeriodicSet(threshold, prefix, period, residues), (threshold, prefix, period, residues)


# -- canonical form ----------------------------------------------------------


def test_canonicalization():
    # redundant period 4 with residues {0, 2} shrinks to period 2
    s = PeriodicSet(0, (), 4, (0, 2))
    assert s.period == 2 and s.residues == frozenset({0})
    # prefix entries that already match the periodic part are absorbed
    t = PeriodicSet(3, (True, False, True), 2, (0,))
    assert t.threshold == 0 and t.prefix == ()
    # {0, 1} u odds: only coordinate 0 disagrees with the odd pattern
    u = PeriodicSet.block(0, 2).union(PeriodicSet(0, (), 2, (1,)))
    assert (u.threshold, u.prefix, u.period, u.residues) == (1, (True,), 2, frozenset({1}))
    assert u.render() == "prefix=1;period=2;residues={1}"
    v = PeriodicSet.from_finite([0, 1, 2])
    assert v == PeriodicSet.block(0, 3) and not v.residues
    assert E.is_empty() and N.residues and not N.prefix
    with pytest.raises(ValidationError):
        PeriodicSet(2, (True,), 1, ())
    with pytest.raises(ValidationError):
        PeriodicSet(0, (), 0, ())
    with pytest.raises(ValidationError):
        PeriodicSet(0, (), 2, (2,))
    with pytest.raises(ValidationError):
        PeriodicSet.from_finite([-1, 2])


def test_membership_matches_raw_form():
    rng = random.Random(11)
    for _ in range(500):
        s, (threshold, prefix, period, residues) = rand_set(rng)
        want = raw_members(threshold, prefix, period, residues, WINDOW)
        assert sorted(members(s, WINDOW)) == sorted(want)
        assert s.bits_below(WINDOW) == sum(1 << x for x in want)
        assert -1 not in s


def test_boolean_ops_pointwise():
    rng = random.Random(12)
    for _ in range(300):
        a, _ = rand_set(rng)
        b, _ = rand_set(rng)
        ma, mb = members(a, WINDOW), members(b, WINDOW)
        assert members(a.union(b), WINDOW) == ma | mb
        assert members(a.intersect(b), WINDOW) == ma & mb
        assert members(a.difference(b), WINDOW) == ma - mb
        assert members(a.complement(), WINDOW) == set(range(WINDOW)) - ma
        assert a.complement().complement() == a
        # equality is canonical: same members means same object data
        assert (a == b) == (members(a, 4 * 6 + 7) == members(b, 4 * 6 + 7))


def test_shift_and_backshift():
    rng = random.Random(13)
    for _ in range(200):
        s, _ = rand_set(rng)
        k = rng.randrange(0, 5)
        ms = members(s, WINDOW)
        assert members(s.shift(k), WINDOW) == {x + k for x in ms if x + k < WINDOW}
        assert members(s.backshift(k), WINDOW - k) == {
            x - k for x in ms if x >= k
        } | {x - k for x in members(s, WINDOW) if x >= k}
        assert s.shift(k).backshift(k) == s
        # shift then backshift loses nothing; the reverse loses the low block
        assert s.backshift(k).shift(k) == s.difference(PeriodicSet.block(0, k))
    with pytest.raises(ValidationError):
        N.shift(-1)
    with pytest.raises(ValidationError):
        N.backshift(-2)


def test_subset_relation():
    rng = random.Random(14)
    for _ in range(200):
        a, _ = rand_set(rng)
        b, _ = rand_set(rng)
        want = members(a, WINDOW) <= members(b, WINDOW)
        assert a.subset(b) == want
    assert E.subset(N) and not N.subset(E)
    assert PeriodicSet.block(2, 5).subset(PeriodicSet.block(0, 5))


def test_render_parse_round_trip():
    rng = random.Random(15)
    for _ in range(200):
        s, _ = rand_set(rng)
        assert PeriodicSet.parse(s.render()) == s
    assert PeriodicSet.parse("{0, 3}") == PeriodicSet.from_finite([0, 3])
    assert PeriodicSet.parse("{}") == E
    assert PeriodicSet.parse("prefix=;period=2;residues={1}") == PeriodicSet(0, (), 2, (1,))
    for bad in ("junk", "{1,a}", "prefix=2;period=1;residues={}",
                "prefix=;period=0;residues={}", "prefix=;period=2;residues={5}"):
        with pytest.raises(FormatError):
            PeriodicSet.parse(bad)


def test_size_budget():
    # a period of a million bits is within the budget
    big = PeriodicSet.parse("prefix=;period=1000000;residues={999999}")
    assert big.period == 1000000 and 999999 in big and 1999999 in big and 5 not in big
    with pytest.raises(BudgetError, match="construction: period reached 1000000000"):
        PeriodicSet.parse("prefix=;period=1000000000;residues={}")
    with pytest.raises(BudgetError, match="construction: threshold reached 1048577"):
        PeriodicSet.from_finite([1 << 20])
    # coprime periods whose lcm passes the cap, caught before the residues are tiled
    a = PeriodicSet(0, (), 1021, (0,))
    b = PeriodicSet(0, (), 1031, (0,))
    with pytest.raises(BudgetError, match="union: period reached 1052651"):
        a.union(b)
    with pytest.raises(BudgetError, match="shift: threshold reached 1048577"):
        PeriodicSet.from_finite([0]).shift(1 << 20)


def test_budgets_fire_past_the_fast_paths(monkeypatch):
    # a period-1 set shifted past the cap, and two sets whose periods differ and
    # have an lcm past it, stop with the exact message before any mask that wide
    cap, tile, mask = pset.SIZE_CAP, pset._tile, pset._mask

    def guarded_tile(bits, p, n):
        assert n <= cap, n
        return tile(bits, p, n)

    def guarded_mask(n):
        assert n <= cap, n
        return mask(n)

    monkeypatch.setattr(pset, "_tile", guarded_tile)
    monkeypatch.setattr(pset, "_mask", guarded_mask)
    with pytest.raises(BudgetError) as err:
        N.shift(cap + 1)
    assert str(err.value) == (
        f"periodic set shift: threshold reached {cap + 1}, over the {cap}-bit budget")
    a = PeriodicSet(3, (True, False, True), 1031, (0, 5))
    b = PeriodicSet(0, (), 1033, (1,))
    assert 1031 * 1033 == 1065023
    for stage, op in (("union", a.union), ("intersection", a.intersect),
                      ("difference", a.difference), ("subset test", a.subset)):
        with pytest.raises(BudgetError) as err:
            op(b)
        assert str(err.value) == (
            f"periodic set {stage}: period reached 1065023, over the {cap}-bit budget")


# -- the shift isomorphism on coordinate sets --------------------------------


def test_shift_iso_action():
    iso = ShiftIso(2)
    assert iso.theta() == PeriodicSet.block(0, 2)
    assert iso.fhat(PeriodicSet.from_finite([0])) == PeriodicSet.block(0, 3)
    assert iso.fhat(E) == PeriodicSet.block(0, 2)
    rng = random.Random(16)
    for _ in range(100):
        s, _ = rand_set(rng)
        image = iso.fhat(s)
        assert iso.theta().subset(image)
        assert iso.fhat_inv(image) == s
        # fhat_inv is loose: composing the other way fills the collapsed block
        assert iso.fhat(iso.fhat_inv(s)) == s.union(iso.theta())
    with pytest.raises(ValidationError):
        ShiftIso(0)
    # the shift is checked against the budget before any mask is built
    with pytest.raises(BudgetError, match="shift: threshold reached 1048577"):
        ShiftIso(1 << 20).fhat(PeriodicSet.from_finite([0]))


# -- the worked symbolic runs -------------------------------------------------


def test_run_shift_two_zeta_zero():
    run = omega_cbs_run(z(2), 2, PeriodicSet.from_finite([0]))
    for n, s in enumerate(run.sigmas):
        assert s == PeriodicSet.block(0, n), f"sigma[{n}]"
    assert run.thetas[0] is None
    assert run.thetas[1:] == run.sigmas[:-1]
    for n, d in enumerate(run.ds):
        assert d == N.difference(PeriodicSet.from_finite([2 * n])), f"d[{n}]"
    assert run.sigma_zeta.render() == "prefix=1;period=2;residues={1}"
    assert run.chi.render() == "prefix=;period=2;residues={1}"
    assert run.neg_chi.render() == "prefix=;period=2;residues={0}"
    assert run.neg_sigma_zeta == PeriodicSet(0, (), 2, (0,)).difference(
        PeriodicSet.from_finite([0])
    )
    assert all(e["ok"] for e in run.equations) and len(run.equations) == 4
    conclusion = run.to_report()["conclusion"]
    assert conclusion["ok"] and conclusion["claim"] == "B ~ B/zeta"
    assert run.infimum_certificate["pattern_period"] == run.k
    assert omega_validate(run) == []
    report = run.to_report()
    assert report["sigma_zeta"] == "prefix=1;period=2;residues={1}"
    json.dumps(report)  # report payload is plain data


@pytest.mark.parametrize("base, k, zeta", [(2, 2, "{0}"), (3, 3, "{1}"), (2, 16, "{0,3,9}")])
def test_report_renders_every_field_like_render(base, k, zeta):
    run = omega_cbs_run(z(base), k, PeriodicSet.parse(zeta), indices=12)
    report = run.to_report()
    assert report["theta"] == run.theta.render() and report["zeta"] == run.zeta.render()
    assert report["sigmas"] == [s.render() for s in run.sigmas]
    assert report["thetas"] == [None] + [t.render() for t in run.thetas[1:]]
    assert report["neg_odd"] == {str(i): s.render() for i, s in sorted(run.neg_odd.items())}
    assert report["ds"] == [d.render() for d in run.ds]
    for name in ("sigma_zeta", "chi", "neg_chi", "neg_sigma_zeta"):
        assert report[name] == getattr(run, name).render(), name


def test_run_pure_shift():
    # zeta empty below k collapses nothing extra: chi vanishes
    run = omega_cbs_run(z(3), 1, PeriodicSet.from_finite([0]))
    assert run.sigma_zeta == PeriodicSet.from_finite([0])
    assert run.chi == E and run.neg_chi == N
    assert run.to_report()["conclusion"]["ok"]
    assert omega_validate(run) == []


def test_run_empty_zeta():
    run = omega_cbs_run(z(2), 2, E)
    assert all(d == N for d in run.ds)
    assert run.sigma_zeta == N
    assert run.chi == N and run.neg_chi == E
    assert run.to_report()["conclusion"]["ok"]
    assert omega_validate(run) == []


def test_run_preconditions():
    with pytest.raises(ValidationError, match="coordinates below k"):
        omega_cbs_run(z(2), 2, PeriodicSet.from_finite([3]))
    v4 = corpus_algebra("v4")
    with pytest.raises(ValidationError, match="decomposable"):
        omega_cbs_run(v4, 2, E)
    one = FiniteAlgebra("one", 1, [Operation("e", 0, (0,))])
    with pytest.raises(ValidationError, match="two elements"):
        omega_cbs_run(one, 1, E)
    with pytest.raises(ValidationError, match="two d-terms"):
        omega_cbs_run(z(2), 2, E, indices=2)
    # indices=3 is the smallest run that still yields two d-terms
    assert len(omega_cbs_run(z(2), 2, E, indices=3).ds) == 2


def test_validate_flags_mutations():
    run = omega_cbs_run(z(2), 2, PeriodicSet.from_finite([0]))
    run.sigmas[4] = run.sigmas[4].union(PeriodicSet.from_finite([7]))
    violations = omega_validate(run)
    assert any("sigma[4]" in v for v in violations)

    run = omega_cbs_run(z(2), 2, PeriodicSet.from_finite([0]))
    run.ds[1] = run.ds[1].difference(PeriodicSet.from_finite([0]))
    violations = omega_validate(run)
    assert any("d[1]" in v for v in violations)

    run = omega_cbs_run(z(2), 2, PeriodicSet.from_finite([0]))
    run.neg_odd[3] = run.neg_odd[3].union(PeriodicSet.from_finite([2]))
    violations = omega_validate(run)
    assert any("neg sigma" in v for v in violations)

    run = omega_cbs_run(z(2), 2, PeriodicSet.from_finite([0]))
    run.chi = run.chi.union(PeriodicSet.from_finite([0]))
    assert any("chi" in v for v in omega_validate(run))


def test_a_validated_run_reports_a_changed_term():
    zeta = PeriodicSet.from_finite([0])
    run = omega_cbs_run(z(2), 2, zeta)
    assert omega_validate(run) == []
    edits = [("sigmas", 3, "f_hat(sigma[3]) != sigma[5]"),
             ("sigmas", 5, "f_hat(sigma[3]) != sigma[5]"),
             ("neg_odd", 5, "neg sigma[5] != f_hat(neg sigma[3])")]
    fresh = omega_cbs_run(z(2), 2, zeta)
    for name, index, flagged in edits:
        old = getattr(run, name)[index]
        # coordinate 1 lies below each term's threshold, so toggling it keeps
        # the threshold and the period and changes only a prefix bit
        x = PeriodicSet.from_finite([1])
        new = old.difference(x) if x.subset(old) else old.union(x)
        assert (new.threshold, new.period) == (old.threshold, old.period)
        getattr(run, name)[index] = getattr(fresh, name)[index] = new
        # the run validated before reports what a run never validated reports
        violations = omega_validate(run)
        assert flagged in violations, (name, index, violations)
        assert violations == omega_validate(replaced(fresh))


def test_a_run_whose_k_changed_validates_by_the_new_shift():
    a = omega_cbs_run(z(2), 2, PeriodicSet.from_finite([0]))
    b = omega_cbs_run(z(2), 2, PeriodicSet.from_finite([0]))
    assert omega_validate(a) == []
    a.k = 3
    assert omega_validate(a) == omega_validate(replaced(b, k=3))
    assert "f_hat(sigma[0]) != sigma[2]" in omega_validate(a)


def test_validate_lists_every_failing_d_pair():
    # d[n] = N minus {2n}; removing 0 from d[1] and d[3] leaves 0 outside
    # d[0], d[1] and d[3], so exactly those three pairs miss it
    run = omega_cbs_run(z(2), 2, PeriodicSet.from_finite([0]))
    for n in (1, 3):
        run.ds[n] = run.ds[n].difference(PeriodicSet.from_finite([0]))
    assert omega_validate(run) == [
        "d[1] does not match its definition",
        "d[3] does not match its definition",
        "d[0] union d[1] misses coordinates",
        "d[0] union d[3] misses coordinates",
        "d[1] union d[3] misses coordinates",
        "f_hat(d[0]) != d[1]",
        "f_hat(d[1]) != d[2]",
        "f_hat(d[2]) != d[3]",
        "f_hat(d[3]) != d[4]",
        "sigma_zeta is not below d[1]",
        "sigma_zeta is not below d[3]",
    ]


def _malformed(kind):
    run = omega_cbs_run(z(2), 2, PeriodicSet.from_finite([0]))
    if kind == "extra d-term":
        run.ds.append(run.ds[-1])
    elif kind == "missing neg sigma[3]":
        del run.neg_odd[3]
    elif kind == "two extra thetas":
        run.thetas += run.thetas[-2:]
    else:
        run.sigmas, run.thetas, run.neg_odd, run.ds = run.sigmas[:1], run.thetas[:1], {}, []
    return run


@pytest.mark.parametrize("kind, reason", [
    ("extra d-term", "6 d-terms for 5 odd indices"),
    ("missing neg sigma[3]", "neg sigma is not indexed by the odd indices below 11"),
    ("two extra thetas", "13 thetas for 11 sigmas"),
    ("one sigma", "1 sigmas, fewer than sigma[0] and sigma[1]"),
])
def test_malformed_runs_are_reported_not_raised(kind, reason):
    assert omega_validate(_malformed(kind)) == [reason]
    # m = 4 is materialized, m = 12 is checked on coordinate sets
    for m in (4, 12):
        result = truncate_validate(_malformed(kind), m)
        assert result["failures"] == [
            {"name": "sequence shape", "ok": False, "witness": {"reason": reason}}
        ]


@st.composite
def symbolic_runs(draw, bases=("z2", "z3", "semilat2"), max_k=6):
    base = corpus_algebra(draw(st.sampled_from(bases)))
    k = draw(st.integers(1, max_k))
    zeta = PeriodicSet.from_finite(sorted(draw(st.frozensets(st.integers(0, k - 1)))))
    return omega_cbs_run(base, k, zeta, indices=draw(st.integers(3, 40)))


# how a violation names sigma[n], neg sigma[n] and d[n]
NAMES = {"sigma": r"(?<!neg )sigma\[{}\]", "neg": r"neg sigma\[{}\]", "d": r"\bd\[{}\]"}


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(symbolic_runs(), st.data())
def test_shared_law_list_on_random_runs(run, data):
    assert omega_validate(run) == []
    assert truncate_validate(run, 2 * run.k)["ok"]
    # add one coordinate to one term that is not already every coordinate
    terms = [("sigma", n, S) for n, S in enumerate(run.sigmas)]
    terms += [("neg", i, S) for i, S in run.neg_odd.items()]
    terms += [("d", n, S) for n, S in enumerate(run.ds)]
    field, n, S = data.draw(st.sampled_from([t for t in terms if t[2] != N]))
    # an eventually periodic set that misses a coordinate misses one
    # below its threshold plus its period
    gaps = S.complement().bits_below(S.threshold + S.period)
    x = data.draw(st.sampled_from([i for i in range(gaps.bit_length()) if gaps >> i & 1]))
    grown = S.union(PeriodicSet.from_finite([x]))
    if field == "sigma":
        run.sigmas[n] = grown
    elif field == "neg":
        run.neg_odd[n] = grown
    else:
        run.ds[n] = grown
    violations = omega_validate(run)
    assert any(re.search(NAMES[field].format(n), v) for v in violations), (field, n, violations)


GATE_BASES = ("z2", "z3", "chain2", "semilat2")


def _stored_terms(run):
    """Field name -> {key: set} for every set a run stores past theta, the
    key None for a field that holds one set."""
    out = {"sigmas": dict(enumerate(run.sigmas)), "neg_odd": dict(run.neg_odd),
           "thetas": {n: S for n, S in enumerate(run.thetas) if S is not None},
           "ds": dict(enumerate(run.ds))}
    return out | {name: {None: getattr(run, name)}
                  for name in ("zeta", "sigma_zeta", "chi", "neg_chi")}


@st.composite
def mutations(draw, run, kind):
    """An edit of the given kind: "k" for another shift amount, "copy" for a
    d-term copied over a sigma, else the name of the field one of whose
    sets has a coordinate toggled."""
    if kind == "k":
        return draw(st.integers(1, 9).filter(lambda k: k != run.k))
    if kind == "copy":
        return draw(st.integers(0, len(run.ds) - 1)), draw(st.integers(0, len(run.sigmas) - 1))
    terms = _stored_terms(run)[kind]
    key = draw(st.sampled_from(list(terms)))
    S = terms[key]
    # past threshold + period a toggle changes the periodic tail's one member
    return key, draw(st.integers(0, S.threshold + S.period + run.k))


def _mutated(run, kind, arg):
    """A copy of the run with one edit (see mutations); the run is unchanged."""
    run = replaced(run, sigmas=list(run.sigmas), thetas=list(run.thetas),
                   neg_odd=dict(run.neg_odd), ds=list(run.ds))
    if kind == "k":
        run.k = arg
    elif kind == "copy":
        run.sigmas[arg[1]] = run.ds[arg[0]]
    else:
        key, x = arg
        old = _stored_terms(run)[kind][key]
        point = PeriodicSet.from_finite([x])
        new = old.difference(point) if x in old else old.union(point)
        if key is None:
            setattr(run, kind, new)
        else:
            getattr(run, kind)[key] = new
    return run


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(symbolic_runs(GATE_BASES, max_k=8), st.data())
def test_window_validator_matches_the_set_route(run, data):
    assert omega_validate(run) == omega_validate_sets(run) == []
    for kind in (*_stored_terms(run), "copy", "k"):
        edited = _mutated(run, kind, data.draw(mutations(run, kind)))
        assert omega_validate(edited) == omega_validate_sets(edited), kind


# one edit per law whose message no other test spells out: the field, its
# key (None for a field that holds one set), the coordinate toggled, and the
# whole ordered violation list.  The run has sigma[n] = [0, n) for n >= 1,
# neg sigma[i] = N - {i - 1}, d[n] = N - {2n}, chi the odd and neg_chi the
# even coordinates.
LAW_EDITS = [
    ("sigmas", 0, 0, ["sigma[0] is not the diagonal", "f_hat(sigma[0]) != sigma[2]",
                      "d[0] does not match its definition",
                      "theta[1] is not the image of sigma[0]"]),
    ("sigmas", 1, 0, ["sigma[1] differs from zeta", "f_hat(sigma[1]) != sigma[3]",
                      "sigma[1] union its complement misses coordinates",
                      "theta[2] is not the image of sigma[1]"]),
    ("sigmas", 10, 0, ["f_hat(sigma[8]) != sigma[10]", "sigma[9] is not below sigma[10]"]),
    ("neg_odd", 1, 0, ["neg sigma[1] differs from the complement rule",
                       "neg sigma[3] != f_hat(neg sigma[1])",
                       "d[0] does not match its definition"]),
    ("neg_odd", 9, 9, ["neg sigma[9] != f_hat(neg sigma[7])",
                       "sigma[9] union its complement misses coordinates",
                       "d[4] does not match its definition"]),
    ("thetas", 5, 0, ["theta[5] is not the image of sigma[4]"]),
    ("chi", None, 0, ["chi does not match its definition"]),
    ("neg_chi", None, 1, ["neg_chi does not match its definition"]),
]


def test_each_symbolic_law_is_reported_by_its_message():
    run = omega_cbs_run(z(2), 2, PeriodicSet.from_finite([0]))
    assert omega_validate(run) == []
    for field, key, x, expected in LAW_EDITS:
        edited = _mutated(run, field, (key, x))
        assert omega_validate(edited) == expected, (field, key)
        assert omega_validate_sets(edited) == expected, (field, key)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(symbolic_runs(GATE_BASES, max_k=16))
def test_every_stored_period_of_a_built_run_divides_k(run):
    # the CLI builds its run by omega_cbs_run from a zeta below k, so no CLI
    # input makes the validation window's lcm larger than k
    assert all(run.k % S.period == 0 for terms in _stored_terms(run).values()
               for S in terms.values())


def test_validation_refuses_a_window_over_the_period_budget():
    run = omega_cbs_run(z(2), 2, PeriodicSet.from_finite([0]))
    # coprime periods whose lcm passes SIZE_CAP though each pair stays under it
    for name, p in (("sigma_zeta", 1009), ("chi", 1013), ("neg_chi", 1019)):
        setattr(run, name, PeriodicSet(0, (), p, (0,)))
    assert 1009 * 1013 < pset.SIZE_CAP < 1009 * 1013 * 1019
    with pytest.raises(BudgetError) as err:
        omega_validate(run)
    assert str(err.value) == ("periodic set validation window: period reached "
                              f"{1009 * 1013 * 1019}, over the 1048576-bit budget")


# -- the countable infimum -----------------------------------------------------


class IntersectFamily(AffineFamily):
    """V_{n+1} = shift(V_n, k) intersected with the fixed set, a recurrence
    the symbolic run does not build but the infimum must decide as well."""

    def step(self, v):
        return v.shift(self.k).intersect(self.fixed)


def test_infimum_basic_families():
    theta = PeriodicSet.block(0, 2)
    constant = AffineFamily(N, 2, theta)
    assert countable_infimum(constant)[0] == N

    # V_n = N minus {n}: the hole walks right, only 0 survives every term
    hole = AffineFamily(N.difference(PeriodicSet.from_finite([1])), 1,
                        PeriodicSet.from_finite([0]))
    assert countable_infimum(hole)[0] == PeriodicSet.from_finite([0])

    # shrinking intersection recurrence: evens pushed right forever dies out
    evens = PeriodicSet(0, (), 2, (0,))
    shrink = IntersectFamily(N, 2, evens)
    assert countable_infimum(shrink)[0] == E

    result, cert = countable_infimum(hole)
    assert result == PeriodicSet.from_finite([0])
    assert set(cert) == {"window", "terms_checked", "stabilization_bound", "pattern_period"}
    assert cert["pattern_period"] == 1


def test_infimum_matches_per_coordinate_oracle():
    # independent model: plain integer sets driven by the recurrence
    run = omega_cbs_run(z(2), 2, PeriodicSet.from_finite([0]))
    fam = AffineFamily(run.ds[1], run.k, run.theta)
    window = 600
    fixed = members(fam.fixed, window)
    term = members(fam.v1, window)
    stabilized_after = 2 * ((256 + 1 + fam.k - 1) // fam.k + 1)
    alive = set(range(257))
    for _ in range(stabilized_after):
        alive &= term
        term = {x + fam.k for x in term if x + fam.k < window} | fixed
    got, _ = countable_infimum(fam)
    assert members(got, 257) == alive
    assert got == run.sigma_zeta


def test_infimum_random_families_against_model():
    rng = random.Random(17)
    window, check_below = 200, 100
    for _ in range(60):
        v1, _ = rand_set(rng)
        fixed, _ = rand_set(rng)
        k = rng.randrange(1, 4)
        mode = rng.choice(["union", "intersect"])
        fam = (AffineFamily if mode == "union" else IntersectFamily)(v1, k, fixed)
        got, _ = countable_infimum(fam)

        fset = members(fixed, window)
        term = members(v1, window)
        alive = set(range(check_below))
        for _ in range(2 * ((check_below + k) // k + 1)):
            alive &= term
            shifted = {x + k for x in term if x + k < window}
            term = (shifted | fset) if mode == "union" else (shifted & fset)
        assert members(got, check_below) == alive
        for t in fam.terms(12):
            assert got.subset(t)


def test_infimum_rejects_nonstabilizing_terms():
    class MovingHole(AffineFamily):
        """Claims shift 2 but its hole moves by one; the bound check trips."""

        def terms(self, count):
            return [N.difference(PeriodicSet.from_finite([n])) for n in range(1, count + 1)]

    fam = MovingHole(N.difference(PeriodicSet.from_finite([1])), 2, PeriodicSet.block(0, 2))
    with pytest.raises(ValidationError, match="not representable"):
        countable_infimum(fam)


class FixedTerms(AffineFamily):
    """Reports the given terms, the last one repeated, whatever its recurrence says."""

    def __new__(cls, v1, k, fixed, given):
        family = super().__new__(cls, v1, k, fixed)
        family.given = given
        return family

    def terms(self, count):
        return (self.given + [self.given[-1]] * count)[:count]


def test_infimum_reads_each_coordinate_within_its_certification_range():
    # with k = 2 coordinate 0 has stabilization bound 2 and reads V_1 .. V_4
    no0 = N.difference(PeriodicSet.from_finite([0]))
    # V_5 on adding 0 back is past that range, and no term misses the result
    assert countable_infimum(FixedTerms(no0, 2, N, [no0] * 4 + [N]))[0] == no0
    # V_5 dropping 0 is past that range too, but the result must lie below it
    with pytest.raises(ValidationError, match="not representable"):
        countable_infimum(FixedTerms(N, 2, no0, [N] * 4 + [no0]))
    # a closed form read off coordinates up to settle + pattern = 4 that
    # disagrees with coordinate 4 of the window is refused
    no3 = N.difference(PeriodicSet.from_finite([3]))
    with pytest.raises(ValidationError, match="not representable"):
        countable_infimum(FixedTerms(N, 1, N, [no3]))


class PerturbedTerms(AffineFamily):
    """The recurrence's terms with coordinate x toggled in term n (1-based)."""

    def __new__(cls, v1, k, fixed, n, x):
        family = super().__new__(cls, v1, k, fixed)
        family.n, family.x = n, x
        return family

    def terms(self, count):
        out = super().terms(count)
        if self.n <= count:
            S, point = out[self.n - 1], PeriodicSet.from_finite([self.x])
            out[self.n - 1] = S.difference(point) if self.x in S else S.union(point)
        return out


def _infimum_or_refusal(infimum, family):
    try:
        return infimum(family)
    except ValidationError as e:
        return str(e)


def test_infimum_on_windows_matches_the_set_route():
    rng = random.Random(29)
    refused = 0
    for _ in range(400):
        v1, _ = rand_set(rng)
        fixed, _ = rand_set(rng)
        k = rng.randrange(1, 4)
        kind = rng.choice(["union", "intersect", "perturbed"])
        if kind == "perturbed":
            fam = PerturbedTerms(v1, k, fixed, rng.randrange(1, 13), rng.randrange(0, 24))
        else:
            fam = (AffineFamily if kind == "union" else IntersectFamily)(v1, k, fixed)
        got = _infimum_or_refusal(countable_infimum, fam)
        assert got == _infimum_or_refusal(countable_infimum_sets, fam), fam
        refused += isinstance(got, str)
    assert 0 < refused < 200
    # with k = 1 the window is [0, 5) and V_12 reads only coordinate 4, so
    # a V_12 that holds the window but nothing past it fails the candidate N
    # only past every threshold, where the inclusion windows must reach
    fam = FixedTerms(N, 1, N, [N] * 11 + [PeriodicSet.block(0, 5)])
    assert _infimum_or_refusal(countable_infimum, fam) == "infimum not representable"


def test_affine_family_validation():
    with pytest.raises(ValidationError):
        AffineFamily(N, 0, E)


# -- coordinate-set congruences on materialized powers -------------------------


def test_restriction_matches_collapse_definition():
    rng = random.Random(18)
    for base, m in ((z(2), 4), (z(3), 3)):
        Bm = power_algebra(base, m)
        weights = [base.size ** (m - 1 - i) for i in range(m)]
        for _ in range(25):
            S = PeriodicSet.from_finite([i for i in range(m) if rng.random() < 0.5])
            oc = OmegaCongruence(base, S)
            rep = oc.restrict_rep(m)
            for x in range(Bm.size):
                digits = [(x // weights[i]) % base.size for i in range(m)]
                least = sum(0 if i in S else digits[i] * weights[i] for i in range(m))
                assert rep[x] == least
            cong = oc.restrict(Bm, m)
            assert compatibility_witness(Bm, cong.rep) is None


def test_restriction_by_digits_matches_the_division_loop():
    # the oracle: subtract each collapsed digit of every element
    def division_loop(n, m, collapse):
        weights = [n ** (m - 1 - i) for i in range(m)]
        rep = []
        for x in range(n ** m):
            r = x
            for i in collapse:
                r -= ((x // weights[i]) % n) * weights[i]
            rep.append(r)
        return rep

    for n, m in ((2, 7), (3, 4), (2, 6)):
        for mask in range(2 ** m):
            collapse = [i for i in range(m) if mask >> i & 1]
            oc = OmegaCongruence(z(n), PeriodicSet.from_finite(collapse))
            assert oc.restrict_rep(m) == division_loop(n, m, collapse), (n, m, mask)


def test_coordinate_lattice_matches_congruence_lattice():
    base = z(2)
    m = 3
    Bm = power_algebra(base, m)
    sets = [PeriodicSet.from_finite(s) for s in ([], [0], [1], [2], [0, 2], [0, 1], [1, 2], [0, 1, 2])]

    def theta(S):
        return OmegaCongruence(base, S).restrict(Bm, m)

    for S in sets:
        assert theta(S).is_diagonal() == S.is_empty()
        comp = S.complement()
        assert S.intersect(comp).is_empty() and S.union(comp) == N
        verdict = check_factor_pair(Bm, theta(S), theta(comp))
        assert verdict["ok"], verdict
        for T in sets:
            assert rep_leq(theta(S).rep, theta(T).rep) == S.subset(T)
            assert theta(S.intersect(T)).rep == congruence_meet(theta(S), theta(T)).rep
            assert theta(S.union(T)).rep == congruence_join(theta(S), theta(T)).rep


# -- truncation checks ---------------------------------------------------------


def test_truncation_materialized_passes():
    run = omega_cbs_run(z(2), 2, PeriodicSet.from_finite([0]))
    for m in (4, 5):
        result = truncate_validate(run, m)
        assert result["ok"], result["failures"]
        assert result["materialized"] and "carrier" not in result
        # 5 set equations, 23 window laws, 3 factor pairs, 10 orthogonal
        # d-pairs and the 2 pairings
        assert result["checks"] == 43 and result["failures"] == []


def test_truncation_lazy_passes():
    run = omega_cbs_run(z(2), 2, PeriodicSet.from_finite([0]))
    result = truncate_validate(run, 16)
    assert result["ok"], result["failures"]
    assert not result["materialized"] and "carrier" not in result
    # 5 set equations, 23 window laws, 5 compatibilities, 3 factor pairs, 1 partition
    assert result["checks"] == 37 and result["failures"] == []


def test_truncation_result_is_the_entry_omega_demo_prints(capsys):
    # m = 4 is materialized, m = 16 is checked on coordinate sets
    argv = ["omega-demo", "--base", "corpus/z2.json", "--shift", "2", "--zeta", "{0}",
            "--truncate", "4", "--truncate", "16", "--format", "json"]
    assert cli.main(argv) == 0
    printed = json.loads(capsys.readouterr().out)["body"]["truncations"]
    run = omega_cbs_run(corpus_algebra("z2"), 2, PeriodicSet.from_finite([0]))
    results = [truncate_validate(run, m) for m in (4, 16)]
    assert [r["materialized"] for r in results] == [True, False]
    assert results == printed
    # text reports follow key order
    assert [list(r) for r in results] == [["m", "materialized", "ok", "checks", "failures"]] * 2


def test_truncation_lazy_failures_name_their_method(monkeypatch):
    # a base whose congruences were not compatible fails all five compatibility
    # checks, each entry in the order name, ok, method, witness
    monkeypatch.setattr(omega, "compatibility_witness", lambda A, rep: [0, 1])
    run = omega_cbs_run(z(2), 2, PeriodicSet.from_finite([0]))
    result = truncate_validate(run, 16)
    assert not result["ok"] and result["checks"] == 37
    names = ("zeta", "neg_sigma[1]", "chi", "neg_chi", "sigma_zeta")
    assert result["failures"] == [
        {"name": f"compatibility {name}", "ok": False, "method": "coordinate-sets",
         "witness": {"pair": [name, "base"], "base": [0, 1]}} for name in names
    ]
    assert [list(entry) for entry in result["failures"]] == \
        [["name", "ok", "method", "witness"]] * len(names)


def test_truncation_flags_corrupted_sigma():
    run = omega_cbs_run(z(2), 2, PeriodicSet.from_finite([0]))
    run.sigmas[3] = run.sigmas[3].union(PeriodicSet.from_finite([3]))
    result = truncate_validate(run, 4)
    assert not result["ok"]
    failure = next(c for c in result["failures"] if c["name"] == "recursion sigma[3]")
    assert failure["witness"]["coordinate"] == 3
    assert failure["witness"]["pair"] == ["f_hat(sigma[1])", "sigma[3]"]


# holes at 6, 13, 20, ...: past the threshold 5 of neg_sigma[5] and of d[2],
# so the first mismatch lies in the periodic part of both sets
PERIODIC_HOLES = PeriodicSet(0, (), 7, (6,))
# holes at and past the window of m = 16 coordinates
LATE_HOLES = PeriodicSet.from_finite([16, 21])


def _holed_run(field, holes):
    run = omega_cbs_run(z(2), 2, PeriodicSet.from_finite([0]))
    if field == "neg_sigma[5]":
        run.neg_odd[5] = run.neg_odd[5].difference(holes)
    else:
        run.ds[2] = run.ds[2].difference(holes)
    return run


@pytest.mark.parametrize("field, check, pair, coordinate", [
    ("neg_sigma[5]", "complement rule neg_sigma[5]", ["f_hat(neg_sigma[3])", "neg_sigma[5]"], 6),
    ("neg_sigma[5]", "complement rule neg_sigma[7]", ["f_hat(neg_sigma[5])", "neg_sigma[7]"], 8),
    ("neg_sigma[5]", "totality sigma[5] u neg_sigma[5]", ["sigma[5]", "neg_sigma[5]"], 6),
    ("neg_sigma[5]", "definition d[2]", ["d[2]", "sigma[4] u neg_sigma[5]"], 6),
    ("d[2]", "definition d[2]", ["d[2]", "sigma[4] u neg_sigma[5]"], 6),
])
def test_truncation_window_checks_name_the_least_coordinate(field, check, pair, coordinate):
    result = truncate_validate(_holed_run(field, PERIODIC_HOLES), 16)
    assert not result["ok"] and not result["materialized"]
    failure = next(c for c in result["failures"] if c["name"] == check)
    assert failure["witness"] == {"pair": pair, "coordinate": coordinate}


def test_truncation_lists_several_failures_in_law_order():
    # one holed term breaks four window laws; they are listed in the order
    # the laws are checked, and the passing laws still count
    result = truncate_validate(_holed_run("neg_sigma[5]", PERIODIC_HOLES), 16)
    assert [c["name"] for c in result["failures"]] == [
        "complement rule neg_sigma[5]",
        "complement rule neg_sigma[7]",
        "totality sigma[5] u neg_sigma[5]",
        "definition d[2]",
    ]
    assert result["checks"] == 37 and not result["ok"]


@pytest.mark.parametrize("field", ["neg_sigma[5]", "d[2]"])
def test_truncation_window_checks_ignore_coordinates_past_m(field):
    result = truncate_validate(_holed_run(field, LATE_HOLES), 16)
    # every check of the unholed run, complement rule neg_sigma[5], totality
    # sigma[5] u neg_sigma[5] and definition d[2] among them, passes
    assert result["ok"] and result["failures"] == [] and result["checks"] == 37
    # the same holes inside a larger window are seen
    wide = truncate_validate(_holed_run(field, LATE_HOLES), 24)
    assert {c["witness"]["coordinate"] for c in wide["failures"]} >= {16}


def _window_mismatch(S, T, m):
    """Least coordinate below m in exactly one of S and T, or None: the
    check on the sets themselves, f_hat(S) built through ShiftIso."""
    x = S.bits_below(m) ^ T.bits_below(m)
    return (x & -x).bit_length() - 1 if x else None


def _window_coordinate(result, name):
    """The witness coordinate of a failed check, None for one that passed."""
    entry = next((c for c in result["failures"] if c["name"] == name), None)
    return None if entry is None else entry["witness"]["coordinate"]


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(raw_sets(), st.integers(1, 8), st.integers(0, 40), st.data())
def test_truncation_windows_agree_with_the_shifted_sets(case, k, extra, data):
    S, _ = case
    m = min(2 * k + extra, 64)
    assert ShiftIso(k).window_fhat(m)(S.bits_below(m)) == ShiftIso(k).fhat(S).bits_below(m)
    # one corrupted term of a run, checked on a window too large to materialize
    zeta = PeriodicSet.from_finite(sorted(data.draw(st.frozensets(st.integers(0, k - 1)))))
    run = omega_cbs_run(z(2), k, zeta, indices=12)
    field = data.draw(st.sampled_from(["sigma", "neg"]))
    terms = run.sigmas if field == "sigma" else run.neg_odd
    index = data.draw(st.sampled_from(sorted(range(len(terms)) if field == "sigma" else terms)))
    if terms[index] == S:
        S = S.complement()
    terms[index] = S
    m = max(m, 10)
    result = truncate_validate(run, m)
    # 5 set equations, 11 recursions, 5 complement rules, 6 totalities, 6
    # d-terms, 5 compatibilities, 3 factor pairs and 1 partition
    assert not result["materialized"] and result["checks"] == 42
    iso = ShiftIso(k)
    for n in range(len(run.sigmas) - 2):
        assert _window_coordinate(result, f"recursion sigma[{n + 2}]") == \
            _window_mismatch(iso.fhat(run.sigmas[n]), run.sigmas[n + 2], m)
    for i in range(1, len(run.sigmas) - 2, 2):
        assert _window_coordinate(result, f"complement rule neg_sigma[{i + 2}]") == \
            _window_mismatch(iso.fhat(run.neg_odd[i]), run.neg_odd[i + 2], m)
    for n, d in enumerate(run.ds):
        assert _window_coordinate(result, f"definition d[{n}]") == \
            _window_mismatch(d, run.sigmas[2 * n].union(run.neg_odd[2 * n + 1]), m)


def test_symbolic_layer_does_not_test_membership_coordinate_by_coordinate(monkeypatch):
    zeta = PeriodicSet.from_finite([0, 2])

    def runs():
        run = omega_cbs_run(z(2), 3, zeta, indices=20)
        lazy, small = truncate_validate(run, 16), truncate_validate(run, 6)
        assert not lazy["materialized"] and small["materialized"]
        return run.to_report(), omega_validate(run), lazy, small

    usual = runs()
    assert usual[1] == [] and usual[2]["ok"] and usual[3]["ok"]

    def refuse(self, x):
        raise AssertionError(f"membership test of coordinate {x} in the symbolic layer")

    monkeypatch.setattr(PeriodicSet, "__contains__", refuse)
    assert runs() == usual


def test_truncation_flags_corrupted_chi():
    run = omega_cbs_run(z(2), 2, PeriodicSet.from_finite([0]))
    run.chi = run.chi.union(PeriodicSet.from_finite([0]))
    result = truncate_validate(run, 4)
    names = {c["name"] for c in result["failures"]}
    assert "chi meets neg_chi in the diagonal" in names
    assert "f_hat(chi) = sigma_zeta" in names


SET_EQUATIONS = (
    "chi meets neg_chi in the diagonal",
    "chi joins neg_chi to the total",
    "zeta = neg_chi meet sigma_zeta",
    "f_hat(chi) = sigma_zeta",
    "chi^c shifted onto sigma_zeta^c",
)


def test_truncation_renders_sets_only_into_failures(monkeypatch):
    run = omega_cbs_run(z(2), 2, PeriodicSet.from_finite([0]))
    run.neg_chi = run.neg_chi.union(run.chi)
    chi_text, neg_chi_text = run.chi.render(), run.neg_chi.render()
    rendered = []
    real = PeriodicSet.render

    def counted(S):
        rendered.append(S)
        return real(S)

    monkeypatch.setattr(PeriodicSet, "render", counted)
    for m in (4, 16):
        rendered.clear()
        failures = {c["name"]: c for c in truncate_validate(run, m)["failures"]}
        assert failures["chi meets neg_chi in the diagonal"] == {
            "name": "chi meets neg_chi in the diagonal", "ok": False,
            "witness": {"pair": [chi_text, neg_chi_text]},
        }
        # the union is still the total, so that check rendered nothing
        assert "chi joins neg_chi to the total" not in failures
        assert len(rendered) == 2 * sum(name in failures for name in SET_EQUATIONS)
    run = omega_cbs_run(z(2), 2, PeriodicSet.from_finite([0]))
    rendered.clear()
    assert truncate_validate(run, 16)["ok"] and rendered == []


def test_truncation_lazy_flags_corrupted_sigma_zeta():
    run = omega_cbs_run(z(2), 2, PeriodicSet.from_finite([0]))
    run.sigma_zeta = run.sigma_zeta.union(PeriodicSet.from_finite([2]))
    result = truncate_validate(run, 16)
    assert not result["ok"]
    failures = {c["name"]: c for c in result["failures"]}
    assert "zeta = neg_chi meet sigma_zeta" in failures
    assert failures["factor pair sigma_zeta/neg_sigma_zeta"]["method"] == "coordinate-sets"


@pytest.mark.parametrize("field, check", [
    ("neg_sigma[1]", "factor pair zeta/neg_sigma[1]"),
    ("neg_sigma_zeta", "factor pair sigma_zeta/neg_sigma_zeta"),
])
def test_truncation_lazy_flags_hole_in_factor_pair(field, check):
    run = omega_cbs_run(z(2), 2, PeriodicSet.from_finite([0]))
    hole = PeriodicSet.from_finite([10, 12])
    if field == "neg_sigma[1]":
        run.neg_odd[1] = run.neg_odd[1].difference(hole)
    else:
        run.neg_sigma_zeta = run.neg_sigma_zeta.difference(hole)
    result = truncate_validate(run, 16)
    assert not result["ok"] and not result["materialized"]
    failure = next(c for c in result["failures"] if c["name"] == check)
    assert failure["method"] == "coordinate-sets"
    assert failure["witness"] == {"pair": check.split(" ")[-1].split("/"), "coordinate": 10}


@pytest.mark.parametrize("remove, add, coordinate", [
    ([7, 9], [], 7),   # coordinates 7, 9 left free although outside zeta
    ([], [0], 0),      # the zeta coordinate 0 read through chi
])
def test_truncation_lazy_flags_corrupted_pairing_partition(remove, add, coordinate):
    run = omega_cbs_run(z(2), 2, PeriodicSet.from_finite([0]))
    run.chi = run.chi.difference(PeriodicSet.from_finite(remove)).union(
        PeriodicSet.from_finite(add))
    result = truncate_validate(run, 16)
    assert not result["ok"]
    failure = next(c for c in result["failures"] if c["name"] == "pairing partition of zeta^c")
    assert failure["method"] == "coordinate-sets"
    assert failure["witness"] == {"pair": ["zeta^c", "chi + sigma_zeta^c"],
                                  "coordinate": coordinate}


def test_truncation_pairing_size_mismatch_builds_no_product(monkeypatch):
    # with neg_chi and sigma_zeta both empty, B/neg_chi x B/sigma_zeta would
    # have 243^2 elements against the 9 of B/zeta
    run = omega_cbs_run(z(3), 2, PeriodicSet.from_finite([0]))
    assert truncate_validate(run, 5)["ok"]
    bad = replaced(run, neg_chi=PeriodicSet.empty(), sigma_zeta=PeriodicSet.empty())

    def refuse(*args, **kwargs):
        raise AssertionError("direct_product built for a size mismatch")

    monkeypatch.setattr(omega, "direct_product", refuse)
    result = truncate_validate(bad, 5)
    assert result["materialized"] and result["checks"] == 43 and not result["ok"]
    failure = next(c for c in result["failures"]
                   if c["name"] == "pairing B/zeta ~ B/neg_chi x B/sigma_zeta")
    assert failure == {
        "name": "pairing B/zeta ~ B/neg_chi x B/sigma_zeta",
        "ok": False,
        "witness": {"pair": ["zeta", "neg_chi x sigma_zeta"], "reason": "size mismatch",
                    "sizes": {"zeta": 81, "neg_chi": 243, "sigma_zeta": 243}},
    }


def test_truncation_builds_each_quotient_once(monkeypatch):
    # the first pairing reads the chi/neg_chi factor-pair verdict and builds
    # nothing; the second builds B/neg_chi, B/zeta and B/sigma_zeta
    from cbswb import structure

    built = []
    real = omega.quotient_algebra

    def counted(A, theta):
        built.append(theta.rep)
        return real(A, theta)

    def refused(*args):
        raise AssertionError("decomposition_witness called")

    monkeypatch.setattr(omega, "quotient_algebra", counted)
    monkeypatch.setattr(structure, "quotient_algebra", counted)
    monkeypatch.setattr(structure, "decomposition_witness", refused)
    assert not hasattr(omega, "decomposition_witness")
    run = omega_cbs_run(z(2), 2, PeriodicSet.from_finite([0]))
    for m in (4, 5):
        built.clear()
        result = truncate_validate(run, m)
        assert result["ok"] and result["materialized"]
        assert len(built) == 3 == len(set(built))
    # a pair that is no factor pair fails the first pairing, and the second
    # builds the same three quotients
    run.chi = run.chi.union(PeriodicSet.from_finite([0]))
    built.clear()
    result = truncate_validate(run, 4)
    failed = {c["name"] for c in result["failures"]}
    assert "pairing B ~ B/neg_chi x B/chi" in failed
    # the second pairing still ran, and held
    assert result["checks"] == 43 and "pairing B/zeta ~ B/neg_chi x B/sigma_zeta" not in failed
    assert len(built) == 3


PAIRING = "pairing B ~ B/neg_chi x B/chi"


@st.composite
def materialized_runs(draw):
    """A run on a gate base with an m whose power is materialized."""
    base = corpus_algebra(draw(st.sampled_from(GATE_BASES)))
    top = max(m for m in range(1, 10) if base.size ** m <= omega.MATERIALIZE_CAP)
    k = draw(st.integers(1, top // 2))
    zeta = PeriodicSet.from_finite(sorted(draw(st.frozensets(st.integers(0, k - 1)))))
    run = omega_cbs_run(base, k, zeta, indices=draw(st.integers(3, 12)))
    return run, draw(st.integers(2 * k, top))


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(materialized_runs(), st.data())
def test_truncation_pairing_reads_the_factor_pair_verdict(case, data):
    # the first pairing's entry, absent or failed with its witness, is the
    # one the decomposition route gives, on the run and on runs with one
    # coordinate of chi or neg_chi toggled so that it lies in both or in neither
    run, m = case

    def entries(r):
        got = [e for e in truncate_validate(r, m)["failures"] if e["name"] == PAIRING]
        assert got == [e for e in [truncation_pairing_entry(r, m)] if e is not None]
        return got

    assert entries(run) == []
    x = data.draw(st.integers(0, m - 1))
    owner = "chi" if x in run.chi else "neg_chi"
    other = "neg_chi" if owner == "chi" else "chi"
    for kind, reason in ((other, "meet_not_diagonal"), (owner, "join_not_total")):
        (entry,) = entries(_mutated(run, kind, (None, x)))
        assert entry["witness"]["reason"].startswith(f"not a factor pair: {reason} at ")


def test_truncation_preconditions():
    run = omega_cbs_run(z(2), 2, PeriodicSet.from_finite([0]))
    with pytest.raises(ValidationError, match="twice the shift"):
        truncate_validate(run, 3)
    with pytest.raises(BudgetError):
        truncate_validate(run, 65)


def test_truncation_budget_messages_name_stage_and_value():
    run = omega_cbs_run(z(2), 2, PeriodicSet.from_finite([0]))
    with pytest.raises(BudgetError,
                       match="^truncation: m reached 65, over the 64-coordinate budget$"):
        truncate_validate(run, 65)
    with pytest.raises(BudgetError, match=r"^quasi-cyclic truncation: carrier reached 2048, "
                                          r"over the 1024-element budget$"):
        QuasiCyclic(2).truncation(11)


# -- the quasi-cyclic example ---------------------------------------------------


def test_quasicyclic_arithmetic():
    qc = Pruefer(2)
    assert qc.reduce(4, 3) == (1, 1)      # 4/8 = 1/2
    assert qc.reduce(8, 3) == (0, 0)      # 8/8 = 0 mod 1
    assert qc.add((1, 1), (1, 1)) == (0, 0)
    assert qc.add((1, 2), (1, 2)) == (1, 1)
    assert qc.add((3, 3), (1, 3)) == (1, 1)
    assert qc.neg((1, 3)) == (7, 3)
    assert qc.neg((0, 0)) == (0, 0)

    for p in (2, 3):
        qc = Pruefer(p)
        level = 3 if p == 2 else 2
        elems = [qc.reduce(a, level) for a in range(p ** level)]
        zero = (0, 0)
        for x in elems:
            assert qc.add(x, zero) == x
            assert qc.add(x, qc.neg(x)) == zero
            for y in elems:
                assert qc.add(x, y) == qc.add(y, x)
                for w in elems:
                    assert qc.add(qc.add(x, y), w) == qc.add(x, qc.add(y, w))

    qc = Pruefer(2)
    m = 4
    seen = set()
    for t in range(2 ** m):
        pair = qc.decode(t, m)
        assert qc.encode(pair, m) == t
        seen.add(pair)
    assert len(seen) == 2 ** m
    with pytest.raises(ValueError):
        qc.encode((1, 5), 4)
    with pytest.raises(ValidationError):
        QuasiCyclic(4)
    with pytest.raises(ValidationError):
        QuasiCyclic(1)


def test_quasicyclic_truncation_adds_as_fractions():
    # element t of the level-m truncation stands for t / p^m
    for p, levels in ((2, range(1, 5)), (3, range(1, 4))):
        qc = Pruefer(p)
        for m in levels:
            T = QuasiCyclic(p).truncation(m)
            plus = T.op("+")
            for a in range(T.size):
                for b in range(T.size):
                    want = qc.encode(qc.add(qc.decode(a, m), qc.decode(b, m)), m)
                    assert apply_raw(T, plus, (a, b)) == want, (p, m, a, b)


def test_quasicyclic_truncation_and_subgroups():
    qc = QuasiCyclic(2)
    T = qc.truncation(3)
    assert T.name == "z(2^3)" and T.size == 8
    assert T.same_tables(z(8))
    for p, m in ((2, 1), (2, 5), (3, 4), (5, 2), (31, 2)):
        size = p ** m
        (op,) = QuasiCyclic(p).truncation(m).ops
        assert tuple(op.table) == tuple((a + b) % size for a in range(size) for b in range(size))
    with pytest.raises(BudgetError):
        qc.truncation(11)

    T4 = qc.truncation(4)
    for j in range(5):
        c = qc.subgroup_congruence(T4, 4, j)
        assert len(c.blocks) == 2 ** (4 - j)
        assert compatibility_witness(T4, c.rep) is None
    assert qc.subgroup_congruence(T4, 4, 0).is_diagonal()
    assert qc.subgroup_congruence(T4, 4, 4).is_total()
    with pytest.raises(ValidationError):
        qc.subgroup_congruence(T4, 4, 5)


def test_quasicyclic_suite_small():
    suite = quasicyclic_suite(2, 1, 4)
    assert suite["ok"] and suite["size"] == 16
    assert len(suite["chain"]) == 5
    assert all(e["ok"] and e["method"] == "exhaustive" for e in suite["chain"])
    assert [e["blocks"] for e in suite["chain"]] == [16, 8, 4, 2, 1]
    assert suite["chain_strictly_increasing"] and suite["chain_ends_ok"]
    assert suite["quotient"]["statement"] == "z(2^4)/z(2^1) ~ z(2^3)"
    assert suite["quotient"]["ok"] and suite["kernel_recomputed_ok"]
    assert all(e["matches_truncation"] for e in suite["pseudo_simple_pattern"])
    assert suite["conclusion"]["every_proper_quotient_isomorphic"]
    assert suite["conclusion"]["downward_closure_holds"]


def test_quasicyclic_conclusion_follows_the_checks(monkeypatch):
    # the level-2 truncation replaced by the four-group breaks the pattern only
    real_truncation = QuasiCyclic.truncation

    def four_group_at_level_2(self, m):
        if m != 2:
            return real_truncation(self, m)
        table = tuple(a ^ b for a in range(4) for b in range(4))
        return FiniteAlgebra("v4", 4, [Operation("+", 2, table)])

    monkeypatch.setattr(QuasiCyclic, "truncation", four_group_at_level_2)
    suite = quasicyclic_suite(2, 1, 4)
    assert not suite["ok"]
    assert [e["matches_truncation"] for e in suite["pseudo_simple_pattern"]] == [
        True, True, False, True]
    assert suite["conclusion"]["every_proper_quotient_isomorphic"] is False
    assert suite["conclusion"]["downward_closure_holds"] is True
    monkeypatch.undo()

    # a repeated subgroup level breaks the chain only
    real_subgroup = QuasiCyclic.subgroup_congruence
    monkeypatch.setattr(QuasiCyclic, "subgroup_congruence",
                        lambda self, T, m, j: real_subgroup(self, T, m, 1 if j == 2 else j))
    suite = quasicyclic_suite(2, 1, 4)
    assert not suite["chain_strictly_increasing"] and suite["chain_ends_ok"]
    assert suite["conclusion"]["downward_closure_holds"] is False


def test_quasicyclic_suite_above_the_exhaustive_cap():
    # 512 elements: the chain's method reads subgroup_closure; the whole
    # result as recorded before the level checks were merged
    def chain(j):
        return {"level": j, "blocks": 2 ** (9 - j), "method": "subgroup_closure", "ok": True}

    def pattern(j):
        return {"level": j, "quotient_size": 2 ** (9 - j), "matches_truncation": True}

    assert quasicyclic_suite(2, 1, 9) == {
        "prime": 2,
        "n": 1,
        "m": 9,
        "size": 512,
        "ok": True,
        "chain": [chain(j) for j in range(10)],
        "chain_strictly_increasing": True,
        "chain_ends_ok": True,
        "quotient": {
            "statement": "z(2^9)/z(2^1) ~ z(2^8)",
            "map": "t -> t mod p^(m-n), identity on representatives",
            "ok": True,
        },
        "kernel_recomputed_ok": True,
        "pseudo_simple_pattern": [pattern(j) for j in range(9)],
        "conclusion": {
            "every_proper_quotient_isomorphic": True,
            "downward_closure_holds": True,
            "note": "each proper collapse of the full group reproduces the group itself; "
                    "truncations certify the pattern level by level",
        },
    }


def quasicyclic_report(p, n, m):
    """The full suite result on a truncation of at most 256 elements, all checks passing."""
    return {
        "prime": p,
        "n": n,
        "m": m,
        "size": p ** m,
        "ok": True,
        "chain": [{"level": j, "blocks": p ** (m - j), "method": "exhaustive", "ok": True}
                  for j in range(m + 1)],
        "chain_strictly_increasing": True,
        "chain_ends_ok": True,
        "quotient": {
            "statement": f"z({p}^{m})/z({p}^{n}) ~ z({p}^{m - n})",
            "map": "t -> t mod p^(m-n), identity on representatives",
            "ok": True,
        },
        "kernel_recomputed_ok": True,
        "pseudo_simple_pattern": [
            {"level": j, "quotient_size": p ** (m - j), "matches_truncation": True}
            for j in range(m)
        ],
        "conclusion": {
            "every_proper_quotient_isomorphic": True,
            "downward_closure_holds": True,
            "note": "each proper collapse of the full group reproduces the group itself; "
                    "truncations certify the pattern level by level",
        },
    }


def test_quasicyclic_suite_largest_benchmark_reports():
    # the two largest suites the benchmark runs, as recorded before each
    # level was certified through the level before
    assert quasicyclic_suite(3, 2, 5) == quasicyclic_report(3, 2, 5)
    assert quasicyclic_suite(2, 3, 7) == quasicyclic_report(2, 3, 7)


def test_quasicyclic_kernel_is_read_off_the_chain(monkeypatch):
    # step 3 of z(2^4) lifted to the total congruence of the 4-element level 2
    real_lift = congruence.quotient_lift

    def total_at_step_3(Q, theta):
        lifted = real_lift(Q, theta)
        return Congruence.total(Q.algebra) if Q.algebra.size == 4 else lifted

    monkeypatch.setattr(congruence, "quotient_lift", total_at_step_3)
    suite = quasicyclic_suite(2, 3, 4)
    assert suite["kernel_recomputed_ok"] is False and suite["ok"] is False
    # the subgroup levels themselves are untouched
    assert suite["chain_strictly_increasing"] and suite["chain_ends_ok"]
    monkeypatch.undo()
    assert quasicyclic_suite(2, 3, 4)["kernel_recomputed_ok"] is True


def test_quasicyclic_suite_rejects_a_level_that_is_no_congruence(monkeypatch):
    # level 2 of z(2^4) replaced by a partition with the right block count
    # that is not compatible with +
    real_subgroup = QuasiCyclic.subgroup_congruence

    def level_2_by(key):
        def subgroup(self, T, m, j):
            if j != 2:
                return real_subgroup(self, T, m, j)
            return Congruence(T, least_rep([key(x) for x in range(T.size)]))

        monkeypatch.setattr(QuasiCyclic, "subgroup_congruence", subgroup)

    # pairs of residues mod 8, so level 1 refines it: the quotient check refuses it
    level_2_by(lambda x: x % 8 // 2)
    with pytest.raises(ValidationError, match="does not preserve"):
        quasicyclic_suite(2, 1, 4)
    # four intervals, which level 1 does not refine: the lift to level 1 refuses it
    level_2_by(lambda x: x // 4)
    with pytest.raises(ValidationError, match="down lift needs sigma <= theta"):
        quasicyclic_suite(2, 1, 4)


def test_quasicyclic_suite_p3_and_identity_quotient():
    suite = quasicyclic_suite(3, 2, 5)
    assert suite["ok"] and suite["size"] == 243
    assert suite["quotient"]["statement"] == "z(3^5)/z(3^2) ~ z(3^3)"
    trivial = quasicyclic_suite(2, 0, 3)
    assert trivial["ok"] and trivial["quotient"]["statement"] == "z(2^3)/z(2^0) ~ z(2^3)"


def test_quasicyclic_kernel_recomputation_is_independent():
    # same recomputation the suite performs, spelled out
    qc = QuasiCyclic(2)
    T = qc.truncation(4)
    target = qc.truncation(3)
    h = Homomorphism(T, target, [x % 8 for x in range(16)])
    assert least_rep(h.mapping) == qc.subgroup_congruence(T, 4, 1).rep


def test_quasicyclic_suite_rejections():
    with pytest.raises(ValidationError, match="not prime"):
        quasicyclic_suite(4, 1, 3)
    with pytest.raises(ValidationError, match="need 0 <= n < m$"):
        quasicyclic_suite(2, 3, 3)
    # the level is refused before p ** m is computed
    with pytest.raises(BudgetError, match="quasi-cyclic suite: m reached 1000000000"):
        quasicyclic_suite(2, 1, 10 ** 9)
