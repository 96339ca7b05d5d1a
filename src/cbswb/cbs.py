"""Congruence operators K(-) and the abstract CBS machinery built on them.

A congruence operator selects a subset K(A) of Con(A) for every algebra.
Four selectors are provided: the full lattice, the factor congruences,
the centre of the congruence lattice, and the congruences whose quotient
satisfies a fixed sentence set.  On top of the selected family the module
computes the interval map f-hat induced by an isomorphism f: A -> A/theta,
the CBS-sequences generated by such data, and the property / completeness
verdicts, each with explicit witnesses.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

from .algebra import (
    DEFAULT_EVAL_BUDGET,
    FiniteAlgebra,
    Homomorphism,
    Sentence,
    automorphisms,
    direct_product,
    iso_search,
    parse_sentence,
    quotient_algebra,
    relabel,
    satisfies,
)
from .congruence import (
    DEFAULT_CON_CAP,
    Congruence,
    CongruenceLattice,
    all_congruences,
    congruence_join,
    quotient_lift,
    relative_congruences,
    transport,
)
from .errors import ValidationError, over_budget
from .structure import center_of_lattice, check_factor_pair, decomposition_witness, factor_congruences

DEFAULT_SEQUENCE_LIMIT = 32
# automorphisms presheaf_check samples for its iso-invariance condition
AUTOMORPHISM_SAMPLES = 10

_SELECTORS = ("con", "fc", "zcon", "rel")


@dataclass(frozen=True)
class OperatorKind:
    """Selector for a congruence operator, with sentences for the relative
    kind and the term-evaluation budget its sentence checks run under."""

    selector: str
    sentences: tuple = ()
    budget: int = DEFAULT_EVAL_BUDGET

    def __post_init__(self):
        if self.selector not in _SELECTORS:
            raise ValidationError(f"unknown operator selector {self.selector!r}")
        if self.selector != "rel" and self.sentences:
            raise ValidationError("only the relative operator takes sentences")
        if self.selector == "rel" and not self.sentences:
            raise ValidationError("relative operator needs at least one sentence")

    @staticmethod
    def con() -> "OperatorKind":
        return OperatorKind("con")

    @staticmethod
    def fc() -> "OperatorKind":
        return OperatorKind("fc")

    @staticmethod
    def zcon() -> "OperatorKind":
        return OperatorKind("zcon")

    @staticmethod
    def relative(sentences, budget: int = DEFAULT_EVAL_BUDGET) -> "OperatorKind":
        parsed = tuple(
            s if isinstance(s, Sentence) else parse_sentence(s) for s in sentences
        )
        return OperatorKind("rel", parsed, budget)

    def label(self) -> str:
        if self.selector == "rel":
            return "rel[" + "; ".join(s.render() for s in self.sentences) + "]"
        return self.selector


def _k_positions(A: FiniteAlgebra, kind: OperatorKind, max_size: int = DEFAULT_CON_CAP):
    """(Con(A), the ascending positions of K(A) in it).  The diagonal is
    always position 0 of Con(A)."""
    if kind.selector == "fc":
        analysis = factor_congruences(A, max_size=max_size)
        return analysis.lattice, analysis.fc
    L = all_congruences(A, max_size=max_size)
    if kind.selector == "con":
        return L, range(len(L))
    if kind.selector == "zcon":
        return L, center_of_lattice(L).central
    at = [L.index[c.rep] for c in
          relative_congruences(A, kind.sentences, max_size=max_size, budget=kind.budget)]
    if at[:1] != [L.bottom]:
        raise ValidationError(
            f"{A.name!r} does not satisfy the relative sentences, "
            "so the diagonal is missing from K(A)"
        )
    return L, at


def operator_eval(A: FiniteAlgebra, kind: OperatorKind, max_size: int = DEFAULT_CON_CAP):
    """K(A) for the given selector, in canonical congruence order."""
    L, at = _k_positions(A, kind, max_size=max_size)
    return [L.elements[i] for i in at]


def _complements(L: CongruenceLattice, i, members):
    """Positions in members that form a factor pair with position i of
    Con(A) = L, ascending."""
    return [j for j in L.complements(i) if j in members and L.factor_pair(i, j)]


def _boolean_failure(L: CongruenceLattice, at):
    """None when the positions at form a Boolean sublattice of Con(A) = L,
    else (reason, positions): a missing bound first, the diagonal before
    the total, with no positions, then L.boolean_failure."""
    if L.bottom not in at:
        return "missing_diagonal", None
    if L.top not in at:
        return "missing_total", None
    return L.boolean_failure(at)


# ---------------------------------------------------------------------------
# the interval map f-hat


class _QuotientIso:
    """An isomorphism f: A -> A/theta, checked once, with f_hat and its loose
    inverse over the one A/theta: the finite twin of omega.ShiftIso.  With
    f = None the natural projection is taken, and it must be bijective.

    f is kept as a map onto Q.algebra, with its inverse and the self-map
    inverse o projection of A; f_hat is the pullback along that self-map,
    since (a, b) is in pi^-1(f(sigma)) iff (f^-1(pi a), f^-1(pi b)) is in sigma.
    """

    def __init__(self, A: FiniteAlgebra, f, theta: Congruence):
        if theta.algebra != A:
            raise ValidationError("theta does not belong to this algebra")
        Q = quotient_algebra(A, theta)
        if f is None:
            f = Q.projection
            if not f.is_bijective():
                raise ValidationError("no default isomorphism: theta collapses elements")
        elif f.source != A or not f.is_bijective() or not f.target.same_tables(Q.algebra):
            raise ValidationError("f is not an isomorphism onto A/theta")
        elif f.target != Q.algebra:
            # a homomorphism onto equal tables under another name
            f = Homomorphism._built(A, Q.algebra, f.mapping)
        self.A, self.f, self.theta, self.Q = A, f, theta, Q
        self.f_inv = f.inverse()
        self.self_map = self.f_inv.compose(Q.projection)

    def fhat(self, sigma: Congruence) -> Congruence:
        return transport(self.self_map, sigma)

    def fhat_inv(self, psi: Congruence) -> Congruence:
        return transport(self.f, quotient_lift(self.Q, congruence_join(psi, self.theta)))


def f_hat(A: FiniteAlgebra, f: Homomorphism, theta: Congruence, sigma: Congruence) -> Congruence:
    """u_theta^-1 of the pushforward of sigma along f; lands in [theta, total]."""
    return _QuotientIso(A, f, theta).fhat(sigma)


def f_hat_inverse(A: FiniteAlgebra, f: Homomorphism, theta: Congruence, psi: Congruence) -> Congruence:
    """Loose inverse of f_hat: join with theta, drop to the quotient, pull back.

    Joining first makes the map total on Con(A); on the interval
    [theta, total] it is the exact inverse of f_hat.
    """
    return _QuotientIso(A, f, theta).fhat_inv(psi)


# ---------------------------------------------------------------------------
# the CBS-sequence core, shared by the finite and the symbolic engine


@dataclass(frozen=True)
class SequenceLattice:
    """What the law list needs of an engine's K(A), and the engine's three
    words: its join, a failed totality and the rule that gives neg sigma[1].
    The d-term pairs are checked one by one only when pairs_may_fail holds."""

    fhat: Callable
    join: Callable
    leq: Callable
    is_diagonal: Callable
    is_total: Callable
    words: tuple
    pairs_may_fail: Callable = lambda ds: True


def sequence_tail(sigmas, neg1, fhat, join):
    """neg sigma[i + 2] = f_hat(neg sigma[i]) for the odd i below len(sigmas),
    and d[n] = sigma[2n] join neg sigma[2n + 1], one d-term per odd index."""
    neg_odd = {1: neg1}
    for i in range(3, len(sigmas), 2):
        neg_odd[i] = fhat(neg_odd[i - 2])
    return neg_odd, [join(sigmas[i - 1], neg) for i, neg in neg_odd.items()]


def sequence_shape(sigmas, thetas, neg_odd, ds):
    """Violations of tables that do not fit the sigmas.  The law lists read
    every term by index, so they run only when this returns nothing."""
    odd = list(range(1, len(sigmas), 2))
    out = []
    if len(sigmas) < 2:
        out.append(f"{len(sigmas)} sigmas, fewer than sigma[0] and sigma[1]")
    if len(thetas) != len(sigmas):
        out.append(f"{len(thetas)} thetas for {len(sigmas)} sigmas")
    if sorted(neg_odd) != odd:
        out.append(f"neg sigma is not indexed by the odd indices below {len(sigmas)}")
    if len(ds) != len(odd):
        out.append(f"{len(ds)} d-terms for {len(odd)} odd indices")
    return out


def sequence_violations(lattice: SequenceLattice, sigmas, zeta, neg_odd, neg1, ds):
    """Every law of a CBS-sequence whose tables pass sequence_shape, in one
    order for both engines; neg1 is neg sigma[1] as the caller recomputes it."""
    L = lattice
    join_word, not_total, neg1_rule = L.words
    out = []
    if not L.is_diagonal(sigmas[0]):
        out.append("sigma[0] is not the diagonal")
    if sigmas[1] != zeta:
        out.append("sigma[1] differs from zeta")
    for n in range(len(sigmas) - 2):
        if L.fhat(sigmas[n]) != sigmas[n + 2]:
            out.append(f"f_hat(sigma[{n}]) != sigma[{n + 2}]")
    for n in range(len(sigmas) - 1):
        if not L.leq(sigmas[n], sigmas[n + 1]):
            out.append(f"sigma[{n}] is not below sigma[{n + 1}]")
    if neg_odd[1] != neg1:
        out.append(f"neg sigma[1] differs from {neg1_rule}")
    for i, neg in sorted(neg_odd.items()):
        if i + 2 in neg_odd and neg_odd[i + 2] != L.fhat(neg):
            out.append(f"neg sigma[{i + 2}] != f_hat(neg sigma[{i}])")
        if not L.is_total(L.join(sigmas[i], neg)):
            out.append(f"sigma[{i}] {join_word} its complement {not_total}")
    for n, d in enumerate(ds):
        if d != L.join(sigmas[2 * n], neg_odd[2 * n + 1]):
            out.append(f"d[{n}] does not match its definition")
    if L.pairs_may_fail(ds):
        for a in range(len(ds)):
            for b in range(a + 1, len(ds)):
                if not L.is_total(L.join(ds[a], ds[b])):
                    out.append(f"d[{a}] {join_word} d[{b}] {not_total}")
    for n in range(len(ds) - 1):
        if L.fhat(ds[n]) != ds[n + 1]:
            out.append(f"f_hat(d[{n}]) != d[{n + 1}]")
    return out


def chi_pair(zeta, neg1, sigma_zeta, neg_sigma_zeta, meet, join):
    """chi = neg sigma[1] meet sigma_zeta and neg_chi = zeta join neg sigma_zeta."""
    return meet(neg1, sigma_zeta), join(zeta, neg_sigma_zeta)


# ---------------------------------------------------------------------------
# CBS-sequences


@dataclass
class CbsSequenceState:
    """Materialized sigma/theta tables with complement choices and d-terms."""

    algebra: FiniteAlgebra
    f: Homomorphism
    theta: Congruence
    zeta: Congruence
    kind: OperatorKind
    sigmas: list = field(default_factory=list)
    thetas: list = field(default_factory=list)  # thetas[0] is None
    neg_odd: dict = field(default_factory=dict)  # odd index -> complement congruence
    ds: list = field(default_factory=list)
    complement_used: Optional[Congruence] = None
    complement_options: list = field(default_factory=list)
    stabilized: bool = False
    stabilized_at: Optional[int] = None

    def to_report(self) -> dict:
        return {
            "algebra": self.algebra.name,
            "kind": self.kind.label(),
            "theta": self.theta.to_blocks_list(),
            "zeta": self.zeta.to_blocks_list(),
            "sigmas": [c.to_blocks_list() for c in self.sigmas],
            "thetas": [None if c is None else c.to_blocks_list() for c in self.thetas],
            "neg_odd": {str(k): v.to_blocks_list() for k, v in sorted(self.neg_odd.items())},
            "ds": [c.to_blocks_list() for c in self.ds],
            "complement_used": self.complement_used.to_blocks_list(),
            "complement_options": [c.to_blocks_list() for c in self.complement_options],
            "stabilized": self.stabilized,
            "stabilized_at": self.stabilized_at,
        }


def cbs_sequence(A: FiniteAlgebra, f, theta: Congruence, zeta: Congruence,
                 kind: Optional[OperatorKind] = None, complement: Optional[Congruence] = None,
                 max_size: int = DEFAULT_CON_CAP) -> CbsSequenceState:
    """Run the sigma/theta recursion from zeta and attach the complement data.

    sigma_0 is the diagonal, sigma_1 = zeta, theta_{n+1} is the pushforward
    of sigma_n along f and sigma_{n+1} the preimage of theta_n under the
    natural projection.  The complement of f_hat(zeta) seeds the odd-index
    complements, which then propagate through f_hat.
    """
    kind = kind or OperatorKind.fc()
    iso = _QuotientIso(A, f, theta)
    L, at = _k_positions(A, kind, max_size=max_size)
    inside = set(at)
    if L.index.get(theta.rep) not in inside or L.index.get(zeta.rep) not in inside:
        raise ValidationError("theta and zeta must belong to K(A)")
    if not zeta.refines(theta):
        raise ValidationError("zeta must lie below theta")

    sigmas = [Congruence.diagonal(A), zeta]
    thetas = [None, transport(iso.f_inv, sigmas[0])]
    stabilized_at = None
    while True:
        n = len(sigmas) - 1
        nxt_sigma = transport(iso.Q.projection, thetas[n])
        nxt_theta = transport(iso.f_inv, sigmas[n])
        sigmas.append(nxt_sigma)
        thetas.append(nxt_theta)
        if stabilized_at is None and nxt_sigma.rep == sigmas[n].rep and nxt_theta.rep == thetas[n].rep:
            stabilized_at = n + 1
        if stabilized_at is not None and len(sigmas) >= 8:
            break
        if len(sigmas) > DEFAULT_SEQUENCE_LIMIT:
            raise over_budget("CBS sequence", "indices", len(sigmas),
                              DEFAULT_SEQUENCE_LIMIT, "index")

    opts = _complements(L, L.index[iso.fhat(zeta).rep], inside)
    options = [L.elements[j] for j in opts]
    if complement is not None:
        if L.index.get(complement.rep) not in opts:
            raise ValidationError("supplied complement is not a factor complement of f_hat(zeta) in K(A)")
        chosen = complement
    elif options:
        chosen = options[0]
    else:
        raise ValidationError("no complement available for f_hat(zeta) in K(A)")

    neg_odd, ds = sequence_tail(sigmas, iso.fhat_inv(chosen), iso.fhat, congruence_join)
    return CbsSequenceState(
        algebra=A, f=iso.f, theta=theta, zeta=zeta, kind=kind,
        sigmas=sigmas, thetas=thetas, neg_odd=neg_odd, ds=ds,
        complement_used=chosen, complement_options=options,
        stabilized=stabilized_at is not None, stabilized_at=stabilized_at,
    )


def validate_sequence(state: CbsSequenceState):
    """Recompute every law of the sequence; returns the list of violations.
    After the shared list: the theta recursion and the chosen complement."""
    A, theta, sigmas, thetas = state.algebra, state.theta, state.sigmas, state.thetas
    iso = _QuotientIso(A, state.f, theta)
    out = sequence_shape(sigmas, thetas, state.neg_odd, state.ds)
    if out:
        return out
    lattice = SequenceLattice(
        iso.fhat, congruence_join, Congruence.refines,
        Congruence.is_diagonal, Congruence.is_total,
        ("join", "is not total", "the pulled-back complement"),
    )
    out = sequence_violations(lattice, sigmas, state.zeta, state.neg_odd,
                              iso.fhat_inv(state.complement_used), state.ds)
    if thetas[1].rep != Congruence.diagonal(iso.Q.algebra).rep:
        out.append("theta[1] is not the diagonal of the quotient")
    for n in range(1, len(sigmas) - 1):
        if sigmas[n + 1].rep != transport(iso.Q.projection, thetas[n]).rep:
            out.append(f"sigma[{n + 1}] breaks the recursion")
        if thetas[n + 1].rep != transport(iso.f_inv, sigmas[n]).rep:
            out.append(f"theta[{n + 1}] breaks the recursion")
    if check_factor_pair(A, iso.fhat(state.zeta), state.complement_used)["ok"] is False:
        out.append("chosen complement does not form a factor pair with f_hat(zeta)")
    return out


# ---------------------------------------------------------------------------
# property and completeness verdicts


def cbs_property_check(A: FiniteAlgebra, kind: Optional[OperatorKind] = None,
                       max_size: int = DEFAULT_CON_CAP) -> dict:
    """Downward-closure form of the CBS property over K(A).

    For every theta in K(A) with A isomorphic to A/theta (an anchor), every
    sigma in K(A) below theta must also give A isomorphic to A/sigma.  The
    verdict is nontrivial only when some non-diagonal theta works.

    In the paper's framework the CBS condition has content only when
    A ~ A/theta for some theta other than the diagonal.  An isomorphism
    keeps the carrier's size, so on a finite algebra only a congruence with
    |A| blocks, the diagonal alone, can be an anchor: the isomorphism is
    searched for once, and the verdict holds without nontrivial instances.
    Those live on countable powers, in cbswb.omega.  cbs_complete_check
    runs the same one case.
    """
    kind = kind or OperatorKind.con()
    L, at = _k_positions(A, kind, max_size=max_size)
    E = L.elements

    anchors = [i for i in at if i == L.bottom
               and iso_search(A, quotient_algebra(A, E[i]).algebra, max_size=max_size)]
    pairs = [(t, s) for t in anchors for s in at if L.leq[s][t]]
    witnesses = [{"theta": E[t].to_blocks_list(), "sigma": E[s].to_blocks_list()}
                 for t, s in pairs if s not in anchors]
    return {
        "algebra": A.name,
        "kind": kind.label(),
        "holds": not witnesses,
        "nontrivial": any(i != L.bottom for i in anchors),
        "self_isomorphic": [E[i].to_blocks_list() for i in anchors],
        "checked": len(pairs),
        "witnesses": witnesses,
    }


def cbs_complete_check(A: FiniteAlgebra, kind: Optional[OperatorKind] = None,
                       max_size: int = DEFAULT_CON_CAP) -> dict:
    """Certify CBS-completeness of K(A) at the one case a finite algebra has.

    An isomorphism f: A -> A/theta forces theta = sigma = zeta = the
    diagonal (see cbs_property_check), with f the natural projection, and
    the complement of f_hat(zeta) in K(A) is the total congruence.  From
    that one attempt the check takes the sequence, sigma_zeta as the meet of
    the d-terms after d[0], neg sigma_zeta as a complement of it in K(A),
    chi and neg chi, and assembles the isomorphism chain
    A ~ A/neg_chi x A/chi ~ A/neg_chi x A/sigma_zeta ~ A/zeta ~ A/sigma.
    A chain that does not close is reported as not certified, with the
    attempt in tried, never as a refutation.
    """
    kind = kind or OperatorKind.fc()
    diag = Congruence.diagonal(A)
    iso = _QuotientIso(A, None, diag)
    L, at = _k_positions(A, kind, max_size=max_size)
    E, index = L.elements, L.index
    boolean = _boolean_failure(L, at) is None

    def equation(claim, ok, hom=None):
        entry = {"claim": claim, "ok": bool(ok)}
        if hom is not None:
            entry["iso"] = list(hom.mapping)
        return entry

    state = cbs_sequence(A, None, diag, diag, kind=kind, max_size=max_size)
    i_sz = L.top
    for d in state.ds[1:]:
        i_sz = L.meet(i_sz, index[d.rep])
    i_nsz = _complements(L, i_sz, set(at))[0]
    i_chi, i_neg_chi = chi_pair(L.bottom, index[state.neg_odd[1].rep], i_sz, i_nsz,
                                L.meet, L.join)
    sz, nsz, chi, neg_chi = E[i_sz], E[i_nsz], E[i_chi], E[i_neg_chi]
    attempt = {
        "zeta": diag.to_blocks_list(),
        "complement": state.complement_used.to_blocks_list(),
        "sigma_zeta": sz.to_blocks_list(),
        "infimum_via": "meet",
        "neg_sigma_zeta": nsz.to_blocks_list(),
        "chi": chi.to_blocks_list(),
        "neg_chi": neg_chi.to_blocks_list(),
        "condition2_required": not boolean,
    }

    w = decomposition_witness(A, neg_chi, chi)
    equations = [equation("A ~ A/neg_chi x A/chi", True, w["iso"])]

    Qz = iso.Q.algebra
    Qnc = quotient_algebra(A, neg_chi).algebra
    Qsz = quotient_algebra(A, sz).algebra
    hit2 = iso_search(Qz, direct_product(Qnc, Qsz), max_size=max_size)
    equations.append(equation("A/zeta ~ A/neg_chi x A/sigma_zeta", hit2, hit2))

    fchi = iso.fhat(chi)
    Qchi = quotient_algebra(A, chi).algebra
    Qfchi = quotient_algebra(A, fchi).algebra
    hit3 = iso_search(Qchi, Qfchi, max_size=max_size)
    equations.append(equation("A/chi ~ A/f_hat(chi)", hit3, hit3))

    equations.append(equation("f_hat(chi) = sigma_zeta", fchi.rep == sz.rep))
    conc = iso_search(A, Qz, max_size=max_size)
    conclusion = equation("A ~ A/sigma", conc, conc)

    closed = all(e["ok"] for e in equations) and conclusion["ok"]
    if not closed:
        attempt.update(failure="equation chain did not close",
                       equations=equations, conclusion=conclusion)
    return {
        "algebra": A.name,
        "kind": kind.label(),
        "theta": diag.to_blocks_list(),
        "sigma": diag.to_blocks_list(),
        "boolean_operator": boolean,
        "verdict": "certified" if closed else "not certified",
        "certificate": {
            **attempt,
            "equations": equations,
            "conclusion": conclusion,
            "sequence": state.to_report(),
        } if closed else None,
        "tried": [] if closed else [attempt],
        # the one zeta always has a complement, the total congruence
        "skipped": [],
    }


def boolean_sublattice_check(A: FiniteAlgebra, ks) -> dict:
    """Is the family a Boolean sublattice of Con(A)?  Witnesses on failure.

    The family is read as its positions in Con(A) (see _boolean_failure);
    a member outside Con(A) is refused once both bounds are found.  The
    family comes out of Con(A), whose carrier cap its caller has applied,
    so none is applied here.
    """
    L = all_congruences(A, max_size=A.size)
    index = L.index
    failure = _boolean_failure(L, sorted({index[c.rep] for c in ks if c.rep in index}))
    reason, at = failure or (None, None)
    # a missing bound is reported before a member outside Con(A)
    if reason not in ("missing_diagonal", "missing_total") and any(
            c.algebra != A or c.rep not in index for c in ks):
        raise ValidationError(f"the family holds a partition outside Con({A.name!r})")
    E = L.elements
    if reason == "complement_not_unique":
        witness = [E[at[0]].to_blocks_list(), [E[j].to_blocks_list() for j in at[1]]]
    else:
        witness = None if at is None else [E[i].to_blocks_list() for i in at]
    return {"ok": failure is None, "reason": reason, "witness": witness}


# ---------------------------------------------------------------------------
# presheaf axioms


def presheaf_check(A: FiniteAlgebra, kind: OperatorKind, factor: Optional[bool] = None,
                   boolean: bool = False, max_size: int = DEFAULT_CON_CAP) -> dict:
    """Verify the operator axioms on A and all of its operator quotients.

    Checks the diagonal axiom, the two-sided correspondence between
    K(A) above sigma and K(A/sigma), isomorphism invariance (sampled over
    automorphisms and one relabeled copy), and on request the factor-pair
    and Boolean-sublattice conditions.
    """
    if factor is None:
        factor = kind.selector in ("fc", "zcon")
    L, at = _k_positions(A, kind, max_size=max_size)
    E, inside = L.elements, set(at)
    violations = []

    quotients = [quotient_algebra(A, E[i]) for i in at]
    axiom1 = {"ok": True, "violations": []}
    if L.bottom not in inside:
        axiom1["ok"] = False
        axiom1["violations"].append({"reason": "diagonal_missing"})
    if kind.selector == "rel":
        for i, Q in zip(at, quotients):
            holds, _ = satisfies(Q.algebra, kind.sentences, budget=kind.budget)
            if not holds:
                axiom1["ok"] = False
                axiom1["violations"].append({
                    "reason": "quotient_outside_class",
                    "sigma": E[i].to_blocks_list(),
                })

    # per sigma: Con(A/sigma) and the positions of K(A/sigma) in it
    kqs = [_k_positions(Q.algebra, kind, max_size=max_size) for Q in quotients]
    downs = []  # per sigma: t -> t/sigma for the position t of each K(A) member above sigma
    correspondence = {"ok": True, "violations": []}
    for i, Q, (LQ, kq) in zip(at, quotients, kqs):
        kq_in = set(kq)
        above = [j for j in at if L.leq[i][j]]
        above_in = set(above)
        down = {j: quotient_lift(Q, E[j]) for j in above}
        downs.append(down)
        lift = {j: LQ.index.get(t.rep) for j, t in down.items()}
        missing = [j for j in above if lift[j] not in kq_in]
        extra = [q for q in kq
                 if L.index[transport(Q.projection, LQ.elements[q]).rep] not in above_in]
        # a lift outside Con(A/sigma) fails the order test
        order_ok = None not in lift.values() and all(
            L.leq[a][b] == LQ.leq[lift[a]][lift[b]] for a in above for b in above)
        if missing or extra or not order_ok:
            correspondence["ok"] = False
            correspondence["violations"].append({
                "sigma": E[i].to_blocks_list(),
                "missing_in_quotient": [E[j].to_blocks_list() for j in missing],
                "extra_in_quotient": [LQ.elements[q].to_blocks_list() for q in extra],
                "order_isomorphic": order_ok,
            })

    factor_block = None
    if factor:
        subset_bad = [i for i in at if not _complements(L, i, range(len(L)))]
        missing_comp = [i for i in at if not _complements(L, i, inside)]
        pair_bad = []
        for i, Q, (LQ, kq), down in zip(at, quotients, kqs, downs):
            kq_in = set(kq)
            for j, image in down.items():
                for c in _complements(L, j, inside):
                    mate = quotient_lift(Q, E[L.join(c, i)])
                    verdict = check_factor_pair(Q.algebra, image, mate)
                    in_k = LQ.index.get(image.rep) in kq_in and LQ.index.get(mate.rep) in kq_in
                    if not verdict["ok"] or not in_k:
                        pair_bad.append({
                            "sigma": E[i].to_blocks_list(),
                            "theta": E[j].to_blocks_list(),
                            "complement": E[c].to_blocks_list(),
                            "pair_ok": verdict["ok"],
                            "reason": verdict["reason"],
                            "in_operator": in_k,
                        })
        factor_block = {
            "ok": not (subset_bad or missing_comp or pair_bad),
            "subset_of_fc": [E[i].to_blocks_list() for i in subset_bad],
            "missing_complement": [E[i].to_blocks_list() for i in missing_comp],
            "quotient_pairs": pair_bad,
        }

    boolean_block = boolean_sublattice_check(A, [E[i] for i in at]) if boolean else None

    auto = automorphisms(A, max_size=max_size)
    copies = [(g, A) for g in auto[:AUTOMORPHISM_SAMPLES]]
    perm = tuple((i + 1) % A.size for i in range(A.size))
    B, to_copy = relabel(A, perm, name=f"{A.name}~")
    copies.append((to_copy, B))
    iso_block = {"ok": True, "sampled": True, "automorphisms": len(auto), "violations": []}
    for g, target in copies:
        # an automorphism's target is A itself, whose K is at
        LB, kb = (L, at) if target is A else _k_positions(target, kind, max_size=max_size)
        if {L.index[transport(g, LB.elements[t]).rep] for t in kb} != inside:
            iso_block["ok"] = False
            iso_block["violations"].append({
                "target": target.name,
                "mapping": list(g.mapping),
            })

    for block, name in ((axiom1, "axiom1"), (correspondence, "correspondence"),
                        (factor_block, "factor"), (boolean_block, "boolean"),
                        (iso_block, "iso_invariance")):
        if block is not None and not block["ok"]:
            violations.append(name)

    return {
        "algebra": A.name,
        "kind": kind.label(),
        "operator_size": len(at),
        "ok": not violations,
        "failed_conditions": violations,
        "conditions": {
            "axiom1": axiom1,
            "correspondence": correspondence,
            "factor": factor_block,
            "boolean": boolean_block,
            "iso_invariance": iso_block,
        },
    }
