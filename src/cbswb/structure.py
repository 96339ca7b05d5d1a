"""Direct decomposition structure of a finite algebra.

A pair of congruences (theta, phi) is a factor pair when theta ^ phi is
the diagonal and theta o phi is the total relation; the algebra is then
isomorphic to A/theta x A/phi.  FC(A) collects the congruences admitting
such a complement.  The centre of Con(A) (neutral complemented elements)
and Church-style central elements give two independent routes to the same
decomposition data, so each result here can be cross-checked against the
others.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .algebra import (
    DEFAULT_EVAL_BUDGET,
    FiniteAlgebra,
    Homomorphism,
    Term,
    compile_term,
    compose as compose_cells,
    direct_product,
    gather,
    quotient_algebra,
    table_args,
)
from .congruence import (
    DEFAULT_CON_CAP,
    CongruenceLattice,
    Congruence,
    all_congruences,
    compose,
    congruence_join,
    congruence_meet,
    principal_congruence,
)
from .errors import ValidationError, over_budget
from .lattice import FiniteLattice


def check_factor_pair(A: FiniteAlgebra, t1: Congruence, t2: Congruence) -> dict:
    """Certify or refute that (t1, t2) is a factor pair of A.

    Refutations name the first failing stage: a nondiagonal pair in the
    meet, a pair missing from the join, or (when the join is total but the
    relational product is not) a witness pair for failed permutability.
    """
    if t1.algebra != A or t2.algebra != A:
        raise ValidationError("factor pair congruences must belong to the algebra")
    meet = congruence_meet(t1, t2)
    if not meet.is_diagonal():
        # the least x with a partner, and its least partner
        block = next(b for b in meet.blocks if len(b) > 1)
        return {"ok": False, "reason": "meet_not_diagonal", "witness": list(block[:2])}
    # with a diagonal meet each t1-block meets each t2-block at most once, and
    # the |A| elements are those meetings: t1 o t2 is total when all happen
    if t1.nblocks * t2.nblocks == A.size:
        return {"ok": True, "reason": None, "witness": None}
    join = congruence_join(t1, t2)
    if not join.is_total():
        witness = join.blocks[0][0], join.blocks[1][0]
        return {"ok": False, "reason": "join_not_total", "witness": list(witness)}
    rel, permutable = compose(t1, t2)
    n = A.size
    missing = next((a, b) for a in range(n) for b in range(n) if (a, b) not in rel)
    return {
        "ok": False,
        "reason": "not_permutable",
        "witness": list(missing),
        "permutable": permutable,
    }


def factor_congruences(A: FiniteAlgebra, max_size: int = DEFAULT_CON_CAP) -> dict:
    """FC(A) as the factor-complement table of the kept Con(A): each factor
    congruence's position, ascending, mapped to the positions of its factor
    complements, ascending (see CongruenceLattice.factor_complements)."""
    return all_congruences(A, max_size=max_size).factor_complements


def fc_report(L: CongruenceLattice) -> dict:
    """The fc verb's report on Con(A) = L: FC(A), each member's factor
    complements, the order of FC(A) inside Con(A) and bfc_report."""
    E, table = L.elements, L.factor_complements
    return {
        "algebra": L.algebra.name,
        "factor_congruences": [E[i].to_blocks_list() for i in table],
        "complements": {str(i): [E[j].to_blocks_list() for j in js] for i, js in table.items()},
        "order": [[bool(L.leq[i][j]) for j in table] for i in table],
        "bfc": bfc_report(L, table),
    }


def decomposition_witness(A: FiniteAlgebra, t1: Congruence, t2: Congruence) -> dict:
    """Explicit isomorphism A -> A/t1 x A/t2 for a factor pair.

    The map sends a to (a/t1, a/t2), a homomorphism into the product of
    two certified quotients; the factor property makes it bijective.
    """
    verdict = check_factor_pair(A, t1, t2)
    if not verdict["ok"]:
        raise ValidationError(f"not a factor pair: {verdict['reason']} at {verdict['witness']}")
    Q1 = quotient_algebra(A, t1)
    Q2 = quotient_algebra(A, t2)
    prod = direct_product(Q1.algebra, Q2.algebra)
    mapping = [
        Q1.projection.mapping[x] * Q2.algebra.size + Q2.projection.mapping[x]
        for x in range(A.size)
    ]
    iso = Homomorphism._built(A, prod, mapping)
    return {"product": prod, "iso": iso, "left": Q1, "right": Q2}


# ---------------------------------------------------------------------------
# centre of a bounded lattice


class CenterReport(NamedTuple):
    central: tuple
    complements: dict  # central element -> tuple of complements
    failures: dict  # non-central element -> failure description
    center_boolean: bool

    def to_report(self) -> dict:
        return {
            "central": list(self.central),
            "complements": {str(z): list(v) for z, v in self.complements.items()},
            "failures": {str(z): v for z, v in sorted(self.failures.items())},
            "center_boolean": self.center_boolean,
        }


def center_of_lattice(L: FiniteLattice) -> CenterReport:
    """Central (= neutral and complemented) elements of a bounded lattice."""
    central, complements, failures = [], {}, {}
    for z in range(L.size):
        failure = L.neutrality_failure(z)
        if failure is not None:
            failures[z] = {"reason": "not_neutral", **failure}
        elif not (comps := L.complements(z)):
            failures[z] = {"reason": "no_complement"}
        else:
            central.append(z)
            complements[z] = tuple(comps)
    boolean = L.boolean_failure(central) is None
    return CenterReport(tuple(central), complements, failures, boolean)


def z_con_report(A: FiniteAlgebra, max_size: int = DEFAULT_CON_CAP) -> dict:
    """Centre of Con(A) plus the relational-product check on central pairs.

    A centre pair (theta, complement) whose relational product is total is
    a factor pair, so when every central pair composes to the total
    relation the centre is a collection of Boolean factor congruences and
    sits inside FC(A).  Each verdict is read off the FC(A) table: two
    complements meet in the diagonal and join to the total congruence, so
    a pair that is no factor pair fails check_factor_pair at permutability.
    """
    table, L = factor_congruences(A, max_size=max_size), all_congruences(A, max_size=max_size)
    centre, E = center_of_lattice(L), L.elements
    pair_checks = []
    for z in centre.central:
        for c in centre.complements[z]:
            ok = c in table.get(z, ())
            pair_checks.append({"theta": E[z].to_blocks_list(), "complement": E[c].to_blocks_list(),
                                "ok": ok, "reason": None if ok else "not_permutable"})
    central_set = set(centre.central)
    fc_set = set(table)
    return {
        "algebra": A.name,
        "center": [E[z].to_blocks_list() for z in centre.central],
        "center_report": centre.to_report(),
        "pair_checks": pair_checks,
        "boolean_candidate": all(p["ok"] for p in pair_checks) and centre.center_boolean,
        "center_subset_of_fc": central_set <= fc_set,
        "center_equals_fc": central_set == fc_set,
        "fc": [E[i].to_blocks_list() for i in table],
    }


def bfc_check(A: FiniteAlgebra, max_size: int = DEFAULT_CON_CAP) -> dict:
    """Is FC(A) a Boolean sublattice of Con(A)?  See bfc_report."""
    table = factor_congruences(A, max_size=max_size)
    return bfc_report(all_congruences(A, max_size=max_size), table)


def bfc_report(lattice: CongruenceLattice, fc) -> dict:
    """Is FC(A), the ascending positions fc, a Boolean sublattice of
    Con(A) = lattice?

    Checks closure under meet and join, then uniqueness of complements
    inside FC, returning the first counterexample found.  A finite uniquely
    complemented lattice is Boolean, so no distributivity check follows.
    """
    E = lattice.elements
    fc_blocks = [E[i].to_blocks_list() for i in fc]
    failure = lattice.boolean_failure(fc)
    if failure is None:
        return {"ok": True, "reason": None, "fc": fc_blocks}

    def blocks(at):
        return [E[i].to_blocks_list() for i in at]

    reason, at = failure
    out = {"ok": False, "reason": reason}
    if reason == "complement_not_unique":
        out["element"] = E[at[0]].to_blocks_list()
        out["complements"] = blocks(at[1])
    else:
        out["pair"] = blocks(at)
        if reason == "meet_not_closed":
            out["meet"] = E[lattice.meet(*at)].to_blocks_list()
        else:
            out["join"] = E[lattice.join(*at)].to_blocks_list()
    out["fc"] = fc_blocks
    return out


# ---------------------------------------------------------------------------
# central elements through a Church-style conditional term


def church_centers(A: FiniteAlgebra, t: Term, zero: int, one: int,
                   budget: int = DEFAULT_EVAL_BUDGET) -> dict:
    """Central elements of an algebra with a conditional term.

    The term t must use variables z, x, y and satisfy t(1,x,y) = x and
    t(0,x,y) = y for the given constants.  An element e is central when

      1. t(e,x,x) = x,
      2. t(e,t(e,x,y),w) = t(e,x,w) = t(e,x,t(e,y,w)),
      3. t(e,1,0) = e,
      4. t(e, g(a..), g(b..)) = g(t(e,a1,b1), ..) for every operation g.

    Central elements carry a Boolean algebra via x v y = t(x,1,y),
    x ^ y = t(x,y,0), not x = t(x,0,1); each centre element e is
    cross-checked against the principal factor pair (theta(1,e),
    theta(e,0)).

    t is evaluated once at every (z, x, y), and the laws read that table.
    The table and the laws take n^3 + n(2n^3 + sum of n^(2 arity) over the
    operations) evaluations, refused over the budget (default 10**7).
    """
    # every variable of t is bound here, so an operation or arity error
    # comes before the variable check
    evaluate = compile_term(A, t, ("z", "x", "y") + t.variables())
    bad = [v for v in t.variables() if v not in ("x", "y", "z")]
    if bad:
        raise ValidationError(f"conditional term must use variables z, x, y; found {bad}")
    for c in (zero, one):
        if not (0 <= c < A.size):
            raise ValidationError(f"constant {c} out of range")

    n = A.size
    count = n ** 3 + n * (2 * n ** 3 + sum(n ** (2 * op.arity) for op in A.ops))
    if count > budget:
        raise over_budget("church", "evaluations", count, budget, "evaluation")
    table = list(map(evaluate, itertools.product(range(n), repeat=3)))

    def ite(e, a, b):
        return table[(e * n + a) * n + b]

    for a in range(A.size):
        for b in range(A.size):
            if ite(one, a, b) != a or ite(zero, a, b) != b:
                raise ValidationError(
                    f"term is not a conditional for constants {zero}, {one} at ({a}, {b})"
                )

    centers = []
    failures = {}
    P = direct_product(A, A)
    for e in range(A.size):
        failure = _church_failure(A, P, ite, table[e * n * n:(e + 1) * n * n], e, zero, one)
        if failure is None:
            centers.append(e)
        else:
            failures[e] = failure

    ops = {}
    if centers:
        ops = {
            "join": {str((a, b)): ite(a, one, b) for a in centers for b in centers},
            "meet": {str((a, b)): ite(a, b, zero) for a in centers for b in centers},
            "not": {str(a): ite(a, zero, one) for a in centers},
        }

    cross = []
    for e in centers:
        upper = principal_congruence(A, one, e)
        lower = principal_congruence(A, e, zero)
        verdict = check_factor_pair(A, upper, lower)
        cross.append(
            {
                "element": e,
                "theta_1e": upper.to_blocks_list(),
                "theta_e0": lower.to_blocks_list(),
                "ok": verdict["ok"],
                "reason": verdict["reason"],
            }
        )

    return {
        "algebra": A.name,
        "centers": centers,
        "failures": {str(e): f for e, f in sorted(failures.items())},
        "boolean_ops": ops,
        "factor_cross_check": cross,
        "factor_cross_check_ok": all(c["ok"] for c in cross),
    }


def _church_failure(A, P, ite, h, e, zero, one):
    n = A.size
    for x in range(n):
        if ite(e, x, x) != x:
            return {"law": "t(e,x,x)=x", "at": [x]}
    for x in range(n):
        for y in range(n):
            for w in range(n):
                if ite(e, ite(e, x, y), w) != ite(e, x, w):
                    return {"law": "t(e,t(e,x,y),w)=t(e,x,w)", "at": [x, y, w]}
                if ite(e, x, ite(e, y, w)) != ite(e, x, w):
                    return {"law": "t(e,x,t(e,y,w))=t(e,x,w)", "at": [x, y, w]}
    if ite(e, one, zero) != e:
        return {"law": "t(e,1,0)=e", "at": []}
    # law 4: h = t(e, -, -), read at a*n + b, is a homomorphism P = A x A -> A
    for op, op_p in zip(A.ops, P.ops):
        lhs, rhs = compose_cells(op_p.table, h, n), gather(op.table, h, op.arity, n)
        if lhs != rhs:
            # the least failing (a, b) in the order a, then b, which is not P's
            # table order; it has the first failing cell's a1, and the cells
            # with that a1 fill one block of n^(2 arity - 1) cells (one at arity 0)
            first = next(i for i, (u, v) in enumerate(zip(lhs, rhs)) if u != v)
            width = max(1, len(lhs) // n)
            tuples = (table_args(op.arity, n * n, i)
                      for i in range(first, first - first % width + width) if lhs[i] != rhs[i])
            a, b = min(([p // n for p in ps], [p % n for p in ps]) for ps in tuples)
            return {"law": "t(e,g(a),g(b))=g(t(e,a,b))", "operation": op.name, "at": [a, b]}
    return None
