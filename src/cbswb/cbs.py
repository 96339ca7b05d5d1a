"""Congruence operators K(-) and the abstract CBS machinery built on them.

A congruence operator selects a subset K(A) of Con(A) for every algebra.
Four selectors are provided: the full lattice, the factor congruences,
the centre of the congruence lattice, and the congruences whose quotient
satisfies a fixed sentence set.  On top of the selected family the module
computes the interval map f-hat induced by an isomorphism f: A -> A/theta,
on a finite algebra an automorphism with theta the diagonal, the
CBS-sequence table of that one case as cbs-complete reports it, and the
property / completeness verdicts, each with explicit witnesses.
"""

from itertools import islice
from typing import NamedTuple, Optional

from .algebra import (
    DEFAULT_EVAL_BUDGET,
    FiniteAlgebra,
    Homomorphism,
    _isomorphisms,
    quotient_algebra,
    relabel,
)
from .congruence import (
    DEFAULT_CON_CAP,
    Congruence,
    all_congruences,
    quotient_lift,
    relative_congruences,
    transport,
)
from .errors import ValidationError
from .structure import center_of_lattice, check_factor_pair, factor_congruences

# automorphisms presheaf_check samples for its iso-invariance condition
AUTOMORPHISM_SAMPLES = 10

_SELECTORS = ("con", "fc", "zcon", "rel")


class OperatorKind(NamedTuple("OperatorKind", [("selector", str), ("sentences", tuple),
                                               ("budget", int)])):
    """Selector for a congruence operator, with sentences for the relative
    kind and the term-evaluation budget its sentence checks run under."""

    __slots__ = ()

    def __new__(cls, selector: str, sentences: tuple = (), budget: int = DEFAULT_EVAL_BUDGET):
        if selector not in _SELECTORS:
            raise ValidationError(f"unknown operator selector {selector!r}")
        if selector != "rel" and sentences:
            raise ValidationError("only the relative operator takes sentences")
        if selector == "rel" and not sentences:
            raise ValidationError("relative operator needs at least one sentence")
        return super().__new__(cls, selector, sentences, budget)

    def label(self) -> str:
        if self.selector == "rel":
            return "rel[" + "; ".join(s.render() for s in self.sentences) + "]"
        return self.selector


def _k_positions(A: FiniteAlgebra, kind: OperatorKind, max_size: int = DEFAULT_CON_CAP):
    """(Con(A), the ascending positions of K(A) in it).  The diagonal is
    always position 0 of Con(A), and every K(A) returned holds both bounds:
    the diagonal and the total congruence are a factor pair, both are
    central, A/total is trivial and satisfies every quasi-equation, and a
    relative kind without the diagonal is refused."""
    L = all_congruences(A, max_size=max_size)
    if kind.selector == "con":
        return L, range(len(L))
    if kind.selector == "fc":
        return L, tuple(factor_congruences(A, max_size=max_size))
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


# ---------------------------------------------------------------------------
# the interval map f-hat


def _automorphism(A: FiniteAlgebra, f) -> Homomorphism:
    """f as an automorphism of A, None for the identity.  An isomorphism
    A -> A/theta keeps the carrier's size, so on a finite algebra theta is
    the diagonal and f an automorphism."""
    if f is None:
        return Homomorphism._built(A, A, range(A.size))
    if f.source != A or f.target != A or not f.is_bijective():
        raise ValidationError("f is not an automorphism of A")
    return f


def f_hat(A: FiniteAlgebra, f, sigma: Congruence) -> Congruence:
    """The pushforward of sigma along the automorphism f (None for the
    identity): the pullback along f^-1, since (a, b) is in f(sigma) iff
    (f^-1(a), f^-1(b)) is in sigma."""
    return transport(_automorphism(A, f).inverse(), sigma)


def f_hat_inverse(A: FiniteAlgebra, f, psi: Congruence) -> Congruence:
    """The inverse of f_hat: the pullback of psi along f."""
    return transport(_automorphism(A, f), psi)


# ---------------------------------------------------------------------------
# the CBS-sequence


def _sequence(A: FiniteAlgebra, kind: OperatorKind, diag: list, total: list) -> dict:
    """The CBS-sequence table of the one case a finite algebra has, with its
    complement data, for a kind whose K(A) the caller has read; diag and
    total are the block lists of the diagonal and the total congruence.

    An isomorphism f: A -> A/theta keeps the carrier's size, so theta =
    zeta = the diagonal and f is an automorphism.  Pulling the diagonal or
    the total congruence back along a bijection gives it again, so the
    sequence is the same for every f: sigma_0 = sigma_1 = the diagonal,
    theta_{n+1} = f_hat(sigma_n) and sigma_{n+1} = theta_n are the diagonal
    too, stationary from index 2 and written to index 7, and the total
    congruence, in every K(A), is the one complement of f_hat(zeta).  The
    odd-index complements are then total, and so is every d-term.
    """
    return {
        "algebra": A.name,
        "kind": kind.label(),
        "theta": diag,
        "zeta": diag,
        "sigmas": [diag] * 8,
        "thetas": [None] + [diag] * 7,
        "neg_odd": {str(i): total for i in range(1, 8, 2)},
        "ds": [total] * 4,
        "complement_used": total,
        "complement_options": [total],
        "stabilized": True,
        "stabilized_at": 2,
    }


def cbs_sequence(A: FiniteAlgebra, kind: Optional[OperatorKind] = None,
                 max_size: int = DEFAULT_CON_CAP) -> dict:
    """The CBS-sequence table of the one case a finite algebra has (see
    _sequence), as cbs-complete reports it.  K(A) is read so that the
    carrier cap applies and a relative kind whose sentences A fails is
    refused."""
    kind = kind or OperatorKind("fc")
    L, _ = _k_positions(A, kind, max_size=max_size)
    return _sequence(A, kind, L.elements[L.bottom].to_blocks_list(),
                     L.elements[L.top].to_blocks_list())


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
    |A| blocks, the diagonal alone, can be an anchor.  It always is one, as
    A/diagonal has A's own tables, and every kind has it at position 0 of
    K(A).  The one pair checked is the diagonal with itself, and the
    verdict holds without nontrivial instances.  Those live on countable
    powers, in cbswb.omega.  cbs_complete_check runs the same one case.
    K(A) is read so that the carrier cap applies and a relative kind whose
    sentences A fails is refused.
    """
    kind = kind or OperatorKind("con")
    L, _ = _k_positions(A, kind, max_size=max_size)
    return {
        "algebra": A.name,
        "kind": kind.label(),
        "holds": True,
        "nontrivial": False,
        "self_isomorphic": [L.elements[L.bottom].to_blocks_list()],
        "checked": 1,
        "witnesses": [],
    }


def cbs_complete_check(A: FiniteAlgebra, kind: Optional[OperatorKind] = None,
                       max_size: int = DEFAULT_CON_CAP) -> dict:
    """Certify CBS-completeness of K(A) at the one case a finite algebra has.

    An isomorphism f: A -> A/theta forces theta = sigma = zeta = the
    diagonal (see cbs_property_check), and every d-term of the sequence
    (see _sequence) is the total congruence.  So sigma_zeta, the meet of
    the d-terms after d[0], is total; its one complement in K(A),
    neg sigma_zeta, is the diagonal; chi = neg sigma[1] meet sigma_zeta is
    total and neg chi = zeta join neg sigma_zeta is the diagonal.  f_hat
    keeps the total congruence, so f_hat(chi) = chi = sigma_zeta and the
    chain
    A ~ A/neg_chi x A/chi ~ A/neg_chi x A/sigma_zeta ~ A/zeta ~ A/sigma
    always closes.  Its product maps and the conclusion's are the identity,
    A/zeta = A/sigma = A/diagonal having A's own tables: A/diagonal labels
    the block of a as a and A/total has the one element 0, so a and (a, 0)
    are the same element of A/diagonal x A/total.  A/chi ~ A/f_hat(chi)
    maps the one block to itself.  The verdict is certified, with nothing
    tried or skipped.  K(A) is read once: the carrier cap applies, a
    relative kind whose sentences A fails is refused, and the Boolean test
    runs on its positions.
    """
    kind = kind or OperatorKind("fc")
    L, at = _k_positions(A, kind, max_size=max_size)
    diag, total = L.elements[L.bottom].to_blocks_list(), L.elements[L.top].to_blocks_list()
    # both bounds are in K(A) (see _k_positions), so only the lattice test can fail
    boolean = L.boolean_failure(at) is None
    identity = list(range(A.size))
    return {
        "algebra": A.name,
        "kind": kind.label(),
        "theta": diag,
        "sigma": diag,
        "boolean_operator": boolean,
        "verdict": "certified",
        "certificate": {
            "zeta": diag,
            "complement": total,
            "sigma_zeta": total,
            "infimum_via": "meet",
            "neg_sigma_zeta": diag,
            "chi": total,
            "neg_chi": diag,
            "condition2_required": not boolean,
            "equations": [
                {"claim": "A ~ A/neg_chi x A/chi", "ok": True, "iso": identity},
                {"claim": "A/zeta ~ A/neg_chi x A/sigma_zeta", "ok": True, "iso": identity},
                {"claim": "A/chi ~ A/f_hat(chi)", "ok": True, "iso": [0]},
                {"claim": "f_hat(chi) = sigma_zeta", "ok": True},
            ],
            "conclusion": {"claim": "A ~ A/sigma", "ok": True, "iso": identity},
            "sequence": _sequence(A, kind, diag, total),
        },
        "tried": [],
        "skipped": [],
    }


def boolean_sublattice_check(A: FiniteAlgebra, ks) -> dict:
    """Is the family a Boolean sublattice of Con(A)?  Witnesses on failure.

    The family is read as its positions in Con(A).  Unlike a K(A), it can
    miss a bound: the diagonal, then the total congruence, is sought first,
    and a member outside Con(A) is refused once both are found; then
    L.boolean_failure runs.  The family comes out of Con(A), whose carrier
    cap its caller has applied, so none is applied here.
    """
    L = all_congruences(A, max_size=A.size)
    index, E = L.index, L.elements
    at = sorted({index[c.rep] for c in ks if c.rep in index})
    for bound, reason in ((L.bottom, "missing_diagonal"), (L.top, "missing_total")):
        if bound not in at:
            return {"ok": False, "reason": reason, "witness": None}
    if any(c.algebra != A or c.rep not in index for c in ks):
        raise ValidationError(f"the family holds a partition outside Con({A.name!r})")
    reason, at = L.boolean_failure(at) or (None, None)
    if reason == "complement_not_unique":
        witness = [E[at[0]].to_blocks_list(), [E[j].to_blocks_list() for j in at[1]]]
    else:
        witness = None if at is None else [E[i].to_blocks_list() for i in at]
    return {"ok": reason is None, "reason": reason, "witness": witness}


# ---------------------------------------------------------------------------
# presheaf axioms


def presheaf_check(A: FiniteAlgebra, kind: OperatorKind, boolean: bool = False,
                   max_size: int = DEFAULT_CON_CAP) -> dict:
    """Verify the operator axioms on A and all of its operator quotients.

    Checks the diagonal axiom, the two-sided correspondence between
    K(A) above sigma and K(A/sigma), isomorphism invariance (sampled over
    automorphisms and one relabeled copy), the factor-pair condition for
    the kinds fc and zcon, and on request the Boolean-sublattice condition.
    """
    L, at = _k_positions(A, kind, max_size=max_size)
    E, inside = L.elements, set(at)

    # the diagonal is in every K(A) (see _k_positions), and for the relative
    # kind every member's quotient satisfies the sentences already, as that
    # is how it entered K(A)
    axiom1 = {"ok": True, "violations": []}

    factor = kind.selector in ("fc", "zcon")
    if factor:
        # FC(A), and each K(A) member's factor complements in K(A), ascending
        fc = L.factor_complements
        fc_in = {i: [j for j in fc.get(i, ()) if j in inside] for i in at}
    correspondence = {"ok": True, "violations": []}
    pair_bad = []
    for i in at:
        Q = quotient_algebra(A, E[i])
        LQ, kq = _k_positions(Q.algebra, kind, max_size=max_size)
        kq_in = set(kq)
        above = [j for j in at if L.leq[i][j]]
        above_in = set(above)
        # j -> the position of E[j]/sigma in Con(A/sigma), or None, for j in [sigma, total]
        lift = {j: LQ.index.get(quotient_lift(Q, E[j]).rep)
                for j in range(i, len(L)) if L.leq[i][j]}
        missing = [j for j in above if lift[j] not in kq_in]
        extra = [q for q in kq
                 if L.index[transport(Q.projection, LQ.elements[q]).rep] not in above_in]
        # a lift outside Con(A/sigma) fails the order test
        order_ok = None not in map(lift.get, above) and all(
            L.leq[a][b] == LQ.leq[lift[a]][lift[b]] for a in above for b in above)
        if missing or extra or not order_ok:
            correspondence["ok"] = False
            correspondence["violations"].append({
                "sigma": E[i].to_blocks_list(),
                "missing_in_quotient": [E[j].to_blocks_list() for j in missing],
                "extra_in_quotient": [LQ.elements[q].to_blocks_list() for q in extra],
                "order_isomorphic": order_ok,
            })
        if not factor:
            continue
        # verdicts come off FC(A/sigma); check_factor_pair gives a listed pair its reason
        for j in above:
            for c in fc_in[j]:
                mate = L.join(c, i)
                in_k = lift[j] in kq_in and lift[mate] in kq_in
                if lift[mate] not in LQ.factor_complements.get(lift[j], ()) or not in_k:
                    verdict = check_factor_pair(Q.algebra, quotient_lift(Q, E[j]),
                                                quotient_lift(Q, E[mate]))
                    pair_bad.append({
                        "sigma": E[i].to_blocks_list(),
                        "theta": E[j].to_blocks_list(),
                        "complement": E[c].to_blocks_list(),
                        "pair_ok": verdict["ok"],
                        "reason": verdict["reason"],
                        "in_operator": in_k,
                    })

    factor_block = None
    if factor:
        subset_bad = [i for i in at if i not in fc]
        missing_comp = [i for i in at if not fc_in[i]]
        factor_block = {
            "ok": not (subset_bad or missing_comp or pair_bad),
            "subset_of_fc": [E[i].to_blocks_list() for i in subset_bad],
            "missing_complement": [E[i].to_blocks_list() for i in missing_comp],
            "quotient_pairs": pair_bad,
        }

    boolean_block = boolean_sublattice_check(A, [E[i] for i in at]) if boolean else None

    # the search checks every cell of a map before it yields it; the
    # automorphisms past the samples are only counted
    autos = _isomorphisms(A, A, max_size)
    copies = [(Homomorphism._built(A, A, m), A) for m in islice(autos, AUTOMORPHISM_SAMPLES)]
    count = len(copies) + sum(1 for _ in autos)
    perm = tuple((i + 1) % A.size for i in range(A.size))
    B, to_copy = relabel(A, perm, name=f"{A.name}~")
    copies.append((to_copy, B))
    iso_block = {"ok": True, "sampled": True, "automorphisms": count, "violations": []}
    for g, target in copies:
        # an automorphism's target is A itself, whose K is at
        LB, kb = (L, at) if target is A else _k_positions(target, kind, max_size=max_size)
        if {L.index[transport(g, LB.elements[t]).rep] for t in kb} != inside:
            iso_block["ok"] = False
            iso_block["violations"].append({
                "target": target.name,
                "mapping": list(g.mapping),
            })

    violations = []
    for block, name in ((correspondence, "correspondence"), (factor_block, "factor"),
                        (boolean_block, "boolean"), (iso_block, "iso_invariance")):
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
