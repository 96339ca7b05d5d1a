"""Independent brute-force oracles the tests pin the implementations against.

Everything here recomputes results from first principles: set partitions by
restricted growth strings, compatibility by comparing all blockwise-equal
argument tuples and its first clash by a dict scan in table order, term
values by direct recursion, periodic-set operations by pointwise membership
over a window, the Pruefer group by fractions, text reports by a recursive
walk over every cell.
The eleven corpus algebras come from one loader, corpus_algebra, which reads
the committed corpus/<name>.json with the package's parse_algebra; those
files are the only corpus.
None of it shares code with the package beyond the public data shapes,
except the corpus loader, the count of relative sentence checks, the
CBS-sequence oracles, the routes and the automorphism list at the end.  The finite sequence state, its validator and the generic
sequence law list, which the validator shares with the set route of the
symbolic validator, live here and read the package's f_hat, joins and
shape check; the symbolic validator states its laws on window ints by
itself, so the set route is a separate statement of them.  The general CBS searches, the refinement-scan presheaf
correspondence, the check_factor_pair scans of the presheaf factor block
and of the centre's pair checks, the set routes of the symbolic validator
and the countable infimum and the decomposition route of the truncation
pairing are the reference forms of the CBS verbs, of the presheaf and
centre reports, of the window routes and of the pairing verdict, and run
on the package's kernels.  The partitions of each n are
kept as rep arrays after their first enumeration, for the congruence
oracles filter them again and again.
"""

import copy
import dataclasses
import functools
import itertools
import json
import os

CORPUS_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "corpus")
CORPUS_NAMES = ("boole2", "chain2", "chain3", "lat22", "one", "semilat2", "v4", "z2", "z3", "z4",
                "z4ring")


def corpus_algebra(name):
    """The committed corpus/<name>.json, parsed into a fresh FiniteAlgebra
    on every call, so no test sees a Con(A) another one kept."""
    from cbswb.algebra import parse_algebra

    with open(os.path.join(CORPUS_DIR, f"{name}.json")) as fh:
        return parse_algebra(json.load(fh))


def all_partitions(n):
    """Every set partition of range(n) as a list of blocks sorted by least element."""

    def grow(prefix, top):
        if len(prefix) == n:
            blocks = {}
            for x, c in enumerate(prefix):
                blocks.setdefault(c, []).append(x)
            yield [blocks[c] for c in sorted(blocks, key=lambda c: blocks[c][0])]
            return
        for c in range(top + 2):
            yield from grow(prefix + [c], max(top, c))

    yield from grow([], -1)


@functools.lru_cache(maxsize=None)
def partition_reps(n):
    """Least-representative arrays of every set partition of range(n), in
    all_partitions order, enumerated once per n."""
    return tuple(rep_of_blocks(blocks, n) for blocks in all_partitions(n))


def rep_of_blocks(blocks, n):
    rep = [0] * n
    for b in blocks:
        m = min(b)
        for x in b:
            rep[x] = m
    return tuple(rep)


def apply_raw(A, op, args):
    idx = 0
    for a in args:
        idx = idx * A.size + a
    return op.table[idx]


def respects(A, rep):
    """All blockwise-equal argument tuples give blockwise-equal results."""
    for op in A.ops:
        for u in itertools.product(range(A.size), repeat=op.arity):
            for v in itertools.product(range(A.size), repeat=op.arity):
                if all(rep[a] == rep[b] for a, b in zip(u, v)):
                    if rep[apply_raw(A, op, u)] != rep[apply_raw(A, op, v)]:
                        return False
    return True


def compatibility_witness(A, rep):
    """Reference for congruence.compatibility_witness by a dict scan over
    every argument tuple in table order: each block tuple remembers its
    first argument tuple, and the first later tuple whose value lands in
    another block than that one's is the clash."""
    for op in A.ops:
        first = {}
        for args in itertools.product(range(A.size), repeat=op.arity):
            prev = first.setdefault(tuple(rep[a] for a in args), args)
            values = [rep[apply_raw(A, op, prev)], rep[apply_raw(A, op, args)]]
            if values[0] != values[1]:
                return {"operation": op.name, "args": list(prev), "other_args": list(args),
                        "values": values}
    return None


def brute_congruences(A):
    """Set of canonical rep arrays of all congruences, by partition filtering."""
    return {rep for rep in partition_reps(A.size) if respects(A, rep)}


def brute_principal(A, a, b):
    """Least-representative array of the smallest congruence joining a and b."""
    cands = [rep for rep in brute_congruences(A) if rep[a] == rep[b]]

    def related(x, y):
        return all(rep[x] == rep[y] for rep in cands)

    return tuple(next(y for y in range(A.size) if related(x, y)) for x in range(A.size))


def naive_eval(A, term, env):
    if term.is_var:
        return env[term.head]
    return apply_raw(A, A.op(term.head), [naive_eval(A, t, env) for t in term.args])


def naive_satisfies(A, sentences):
    """satisfies by naive_eval, one variable bound per level of recursion:
    at each full assignment every premise, then the conclusion; the first
    failing assignment in lexicographic order is the witness."""
    for idx, sent in enumerate(sentences):
        names = sent.variables()

        def first_failure(env):
            if len(env) < len(names):
                for v in range(A.size):
                    found = first_failure({**env, names[len(env)]: v})
                    if found is not None:
                        return found
                return None
            if all(naive_eval(A, s, env) == naive_eval(A, t, env) for s, t in sent.premises):
                if naive_eval(A, sent.lhs, env) != naive_eval(A, sent.rhs, env):
                    return env
            return None

        env = first_failure({})
        if env is not None:
            return False, {"sentence": idx, "rendered": sent.render(), "assignment": env}
    return True, None


def church_failure(A, t, e, zero, one):
    """The first law that fails for e as a central element through the
    conditional term t, in church_centers' law order, or None; each value
    of t is computed again by direct recursion, once per call."""
    n = A.size

    @functools.cache
    def ite(x, y):
        return naive_eval(A, t, {"z": e, "x": x, "y": y})

    for x in range(n):
        if ite(x, x) != x:
            return {"law": "t(e,x,x)=x", "at": [x]}
    for x, y, w in itertools.product(range(n), repeat=3):
        if ite(ite(x, y), w) != ite(x, w):
            return {"law": "t(e,t(e,x,y),w)=t(e,x,w)", "at": [x, y, w]}
        if ite(x, ite(y, w)) != ite(x, w):
            return {"law": "t(e,x,t(e,y,w))=t(e,x,w)", "at": [x, y, w]}
    if ite(one, zero) != e:
        return {"law": "t(e,1,0)=e", "at": []}
    for op in A.ops:
        for u in itertools.product(range(n), repeat=op.arity):
            for v in itertools.product(range(n), repeat=op.arity):
                lhs = ite(apply_raw(A, op, u), apply_raw(A, op, v))
                if lhs != apply_raw(A, op, [ite(a, b) for a, b in zip(u, v)]):
                    return {"law": "t(e,g(a),g(b))=g(t(e,a,b))", "operation": op.name,
                            "at": [list(u), list(v)]}
    return None


def members(S, window):
    """Pointwise membership set of a PeriodicSet over [0, window)."""
    return {x for x in range(window) if x in S}


def raw_members(threshold, prefix, period, residues, window):
    """Membership decided straight from the un-canonicalized description."""
    out = set()
    for x in range(window):
        if x < threshold:
            if prefix[x]:
                out.add(x)
        elif x % period in residues:
            out.add(x)
    return out


def join_closure(rels, n):
    """Transitive closure of a union of equivalence relations on range(n)."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for rep in rels:
        for x in range(n):
            a, b = find(x), find(rep[x])
            if a != b:
                parent[max(a, b)] = min(a, b)
    return tuple(find(x) for x in range(n))


def meet_rep(r1, r2):
    """Least-representative array of the intersection of two equivalences."""
    first = {}
    return tuple(first.setdefault((r1[x], r2[x]), x) for x in range(len(r1)))


def refines(r1, r2):
    """Every pair related by r1 is related by r2."""
    n = len(r1)
    return all(r2[x] == r2[y] for x in range(n) for y in range(n) if r1[x] == r1[y])


def rep_leq(r1, r2):
    """refines for a least-representative r1, in O(n): each x and its
    representative r1[x] share a block of r2."""
    return all(r2[x] == r2[r1[x]] for x in range(len(r1)))


def order_bound(leq, i, j, lower):
    """Greatest lower (or least upper) bound of i and j read off an order matrix."""
    m = len(leq)
    if lower:
        cands = [k for k in range(m) if leq[k][i] and leq[k][j]]
        return next(k for k in cands if all(leq[c][k] for c in cands))
    cands = [k for k in range(m) if leq[i][k] and leq[j][k]]
    return next(k for k in cands if all(leq[k][c] for c in cands))


def boolean_sublattice_failure(members, n):
    """First reason a list of equivalences (rep arrays) is not a Boolean
    sublattice of the equivalences on range(n), with the witness reps, or
    None: closure under meet then join per pair, exactly one complement
    among the members, distributivity per triple."""
    inside = set(members)

    def join(a, b):
        return join_closure([a, b], n)

    for a in members:
        for b in members:
            if meet_rep(a, b) not in inside:
                return "meet_not_closed", (a, b)
            if join(a, b) not in inside:
                return "join_not_closed", (a, b)
    bottom, top = tuple(range(n)), (0,) * n
    for a in members:
        comps = [b for b in members if meet_rep(a, b) == bottom and join(a, b) == top]
        if len(comps) != 1:
            return "complement_not_unique", (a, comps)
    for a in members:
        for b in members:
            for c in members:
                if meet_rep(a, join(b, c)) != join(meet_rep(a, b), meet_rep(a, c)):
                    return "not_distributive", (a, b, c)
    return None


def all_homs(A, B):
    """Brute-force enumeration of every homomorphism A -> B."""
    from cbswb.algebra import Homomorphism

    if A.signature() != B.signature():
        return []
    out = []
    for mapping in itertools.product(range(B.size), repeat=A.size):
        ok = True
        for op in A.ops:
            opb = B.op(op.name)
            for args in itertools.product(range(A.size), repeat=op.arity):
                idx = 0
                for a in args:
                    idx = idx * A.size + a
                idxb = 0
                for a in args:
                    idxb = idxb * B.size + mapping[a]
                if mapping[op.table[idx]] != opb.table[idxb]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(Homomorphism(A, B, mapping))
    return out


def factor_pair_verdict(r1, r2, n):
    """Factor-pair verdict on two equivalences (rep arrays) on range(n),
    with the relational products enumerated over all triples: the first
    failing stage among a nondiagonal meet, a join that is not total and a
    product r1 o r2 that is not total, with the least witness pair."""
    pairs = [(a, b) for a in range(n) for b in range(n)]
    meet = [(a, b) for a, b in pairs if a != b and r1[a] == r1[b] and r2[a] == r2[b]]
    if meet:
        return {"ok": False, "reason": "meet_not_diagonal", "witness": list(meet[0])}

    def product(s, t):
        return {(a, b) for a, w, b in itertools.product(range(n), repeat=3)
                if s[a] == s[w] and t[w] == t[b]}

    forward = product(r1, r2)
    if len(forward) == n * n:
        return {"ok": True, "reason": None, "witness": None}
    join = join_closure([r1, r2], n)
    if any(r != 0 for r in join):
        return {"ok": False, "reason": "join_not_total",
                "witness": [0, next(x for x in range(n) if join[x] != 0)]}
    return {"ok": False, "reason": "not_permutable",
            "witness": list(next(p for p in pairs if p not in forward)),
            "permutable": forward == product(r2, r1)}


def lattice_covers(leq):
    """Pairs (i, j) with i < j in the order and nothing strictly between,
    i then j ascending."""
    m = len(leq)
    return [(i, j) for i in range(m) for j in range(m)
            if i != j and leq[i][j]
            and not any(k != i and k != j and leq[i][k] and leq[k][j] for k in range(m))]


def lattice_is_modular(leq, M, J):
    """x <= z implies x v (y ^ z) = (x v y) ^ z, over every triple."""
    m = len(leq)
    return all(J[x][M[y][z]] == M[J[x][y]][z]
               for x in range(m) for z in range(m) if leq[x][z] for y in range(m))


def lattice_is_distributive(M, J):
    """x ^ (y v z) = (x ^ y) v (x ^ z), over every triple."""
    m = len(M)
    return all(M[x][J[y][z]] == J[M[x][y]][M[x][z]]
               for x in range(m) for y in range(m) for z in range(m))


def neutrality_failure(M, J, z):
    """First failing median identity (x v y) ^ w = (x ^ w) v (y ^ w) ("D")
    or its dual ("D*") over every arrangement (x, y, w) of {a, b, z}, with a
    then b ascending, or None when z is neutral."""
    m = len(M)
    for a in range(m):
        for b in range(m):
            for x, y, w in itertools.permutations((a, b, z)):
                if M[J[x][y]][w] != J[M[x][w]][M[y][w]]:
                    return {"triple": [x, y, w], "identity": "D"}
                if J[M[x][y]][w] != M[J[x][w]][J[y][w]]:
                    return {"triple": [x, y, w], "identity": "D*"}
    return None


class Pruefer:
    """The Pruefer p-group Z(p^inf), worked as fractions: reduced pairs
    (a, k) for a / p^k mod 1 with p not dividing a, or (0, 0).  Level m
    holds the pairs with k <= m; its element t stands for t / p^m."""

    def __init__(self, prime):
        self.prime = prime

    def reduce(self, a, k):
        p = self.prime
        a %= p ** k if k > 0 else 1
        while k > 0 and a % p == 0:
            a //= p
            k -= 1
        if k == 0:
            return (0, 0)
        return (a, k)

    def add(self, x, y):
        k = max(x[1], y[1])
        p = self.prime
        return self.reduce(x[0] * p ** (k - x[1]) + y[0] * p ** (k - y[1]), k)

    def neg(self, x):
        if x == (0, 0):
            return x
        return self.reduce(self.prime ** x[1] - x[0], x[1])

    def encode(self, pair, m):
        """Element a/p^k as the integer t with pair = t / p^m."""
        a, k = pair
        if k > m:
            raise ValueError("element lies outside this truncation")
        return a * self.prime ** (m - k)

    def decode(self, t, m):
        return self.reduce(t, m)


def _scalar_text(value):
    if value is None:
        return "none"
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


def _inline_text(value):
    """Short lists of scalars, or of scalar lists, are rendered on one line."""
    if not isinstance(value, list):
        return None
    if all(not isinstance(v, (list, dict)) for v in value):
        text = "[" + ", ".join(_scalar_text(v) for v in value) + "]"
    elif all(
        isinstance(v, list) and all(not isinstance(x, (list, dict)) for x in v)
        for v in value
    ):
        text = "[" + ", ".join(
            "[" + ", ".join(_scalar_text(x) for x in v) + "]" for v in value
        ) + "]"
    else:
        return None
    return text if len(text) <= 72 else None


def text_lines(label, value, depth=0):
    """The lines of one labelled value in a text report, walked cell by cell:
    the reference form of the text writer in cbswb.report."""
    pad = "  " * depth
    if isinstance(value, dict):
        if not value:
            yield f"{pad}{label}: {{}}"
            return
        yield f"{pad}{label}:"
        for k in value:
            yield from text_lines(k, value[k], depth + 1)
    elif isinstance(value, list):
        inline = _inline_text(value)
        if inline is not None:
            yield f"{pad}{label}: {inline}"
            return
        yield f"{pad}{label}:"
        for i, item in enumerate(value):
            yield from text_lines(f"[{i}]", item, depth + 1)
    else:
        yield f"{pad}{label}: {_scalar_text(value)}"


# ---------------------------------------------------------------------------
# the finite CBS-sequence and its laws
#
# cbs_sequence reports the one finite sequence as a table; the state below
# holds it as congruences, and the validator recomputes its laws.


class CbsSequenceState:
    """Materialized sigma/theta tables with complement choices and d-terms;
    thetas[0] is None and neg_odd maps each odd index to its complement."""

    def __init__(self, algebra, kind, theta, zeta, sigmas, thetas, neg_odd, ds,
                 complement_used, complement_options, stabilized, stabilized_at):
        self.algebra, self.kind, self.theta, self.zeta = algebra, kind, theta, zeta
        self.sigmas, self.thetas, self.neg_odd, self.ds = sigmas, thetas, neg_odd, ds
        self.complement_used, self.complement_options = complement_used, complement_options
        self.stabilized, self.stabilized_at = stabilized, stabilized_at

    def to_report(self):
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


def reported_sequence(A, kind):
    """The table cbs_sequence reports for A and kind, read back into
    congruences of A as a CbsSequenceState."""
    from cbswb.cbs import cbs_sequence
    from cbswb.congruence import Congruence

    table = cbs_sequence(A, kind)
    assert (table["algebra"], table["kind"]) == (A.name, kind.label())

    def cong(blocks):
        return None if blocks is None else Congruence.from_blocks(A, blocks)

    def congs(key):
        return [cong(blocks) for blocks in table[key]]

    return CbsSequenceState(
        algebra=A, kind=kind, theta=cong(table["theta"]), zeta=cong(table["zeta"]),
        sigmas=congs("sigmas"), thetas=congs("thetas"),
        neg_odd={int(i): cong(blocks) for i, blocks in table["neg_odd"].items()},
        ds=congs("ds"), complement_used=cong(table["complement_used"]),
        complement_options=congs("complement_options"),
        stabilized=table["stabilized"], stabilized_at=table["stabilized_at"],
    )


@dataclasses.dataclass(frozen=True)
class SequenceLattice:
    """What the law list needs of an engine's K(A), and the engine's three
    words: its join, a failed totality and the rule that gives neg sigma[1].
    The d-term pairs are checked one by one only when pairs_may_fail holds."""

    fhat: object
    join: object
    leq: object
    is_diagonal: object
    is_total: object
    words: tuple
    pairs_may_fail: object = lambda ds: True


def sequence_violations(lattice, sigmas, zeta, neg_odd, neg1, ds):
    """Every law of a CBS-sequence whose tables pass sequence_shape, in one
    order for every engine; neg1 is neg sigma[1] as the caller recomputes it."""
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


def validate_sequence(state):
    """Recompute every law of a finite sequence; returns the list of
    violations.  f_hat is that of the identity, whose sequence is every
    automorphism's (see cbs_sequence).  After the law list: the theta
    recursion and the chosen complement."""
    from cbswb.cbs import f_hat, f_hat_inverse
    from cbswb.congruence import Congruence, congruence_join
    from cbswb.omega import sequence_shape
    from cbswb.structure import check_factor_pair

    A, sigmas, thetas = state.algebra, state.sigmas, state.thetas
    fhat = functools.partial(f_hat, A, None)
    out = sequence_shape(sigmas, thetas, state.neg_odd, state.ds)
    if out:
        return out
    lattice = SequenceLattice(
        fhat, congruence_join, lambda s, t: rep_leq(s.rep, t.rep),
        Congruence.is_diagonal, Congruence.is_total,
        ("join", "is not total", "the pulled-back complement"),
    )
    out = sequence_violations(lattice, sigmas, state.zeta, state.neg_odd,
                              f_hat_inverse(A, None, state.complement_used), state.ds)
    if thetas[1].rep != Congruence.diagonal(A).rep:
        out.append("theta[1] is not the diagonal of the quotient")
    for n in range(1, len(sigmas) - 1):
        if sigmas[n + 1].rep != thetas[n].rep:
            out.append(f"sigma[{n + 1}] breaks the recursion")
        if thetas[n + 1].rep != fhat(sigmas[n]).rep:
            out.append(f"theta[{n + 1}] breaks the recursion")
    if check_factor_pair(A, fhat(state.zeta), state.complement_used)["ok"] is False:
        out.append("chosen complement does not form a factor pair with f_hat(zeta)")
    return out


# ---------------------------------------------------------------------------
# general CBS searches
#
# On a finite algebra the CBS verbs run one case: an isomorphism A -> A/theta
# keeps the carrier's size, so theta is the diagonal and f an automorphism.
# The forms below take any isomorphism f: A -> A/theta, any seed zeta below
# theta and any complement; the searches run them over every member of K(A),
# every zeta of the bracket and every complement, and are what the verbs are
# checked against.  They import the package's kernels where used, so that
# loading this module loads no package code.


class QuotientIso:
    """An isomorphism f: A -> A/theta, checked, with f_hat and its loose
    inverse over the one A/theta.  With f = None the natural projection is
    taken, and it must be bijective.

    f is kept as a map onto Q.algebra, with its inverse and the self-map
    inverse o projection of A; f_hat is the pullback along that self-map,
    since (a, b) is in pi^-1(f(sigma)) iff (f^-1(pi a), f^-1(pi b)) is in sigma.
    """

    def __init__(self, A, f, theta):
        from cbswb.algebra import Homomorphism, quotient_algebra
        from cbswb.errors import ValidationError

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
            f = Homomorphism(A, Q.algebra, f.mapping)
        self.A, self.f, self.theta, self.Q = A, f, theta, Q
        self.f_inv = f.inverse()
        self.self_map = self.f_inv.compose(Q.projection)

    def fhat(self, sigma):
        """u_theta^-1 of the pushforward of sigma along f; lands in [theta, total]."""
        from cbswb.congruence import transport

        return transport(self.self_map, sigma)

    def fhat_inv(self, psi):
        """Loose inverse of fhat: join with theta, drop to the quotient, pull
        back.  Joining first makes the map total on Con(A); on the interval
        [theta, total] it is the exact inverse of fhat."""
        from cbswb.congruence import congruence_join, quotient_lift, transport

        return transport(self.f, quotient_lift(self.Q, congruence_join(psi, self.theta)))


def general_cbs_sequence(A, f, theta, zeta, kind, complement=None):
    """The CBS-sequence of f: A -> A/theta seeded at zeta in K(A) below
    theta, with the given complement of f_hat(zeta) in K(A), else the first.

    sigma_0 is the diagonal, sigma_1 = zeta, theta_{n+1} is the pushforward
    of sigma_n along f and sigma_{n+1} the preimage of theta_n under the
    natural projection, run until both stabilize and to index 7 at least.
    """
    from cbswb.cbs import operator_eval
    from cbswb.congruence import Congruence, all_congruences, congruence_join, transport
    from cbswb.errors import ValidationError
    from cbswb.omega import sequence_tail

    iso = QuotientIso(A, f, theta)
    ks = operator_eval(A, kind)
    reps = {c.rep for c in ks}
    if theta.rep not in reps or zeta.rep not in reps:
        raise ValidationError("theta and zeta must belong to K(A)")
    if not rep_leq(zeta.rep, theta.rep):
        raise ValidationError("zeta must lie below theta")

    sigmas = [Congruence.diagonal(A), zeta]
    thetas = [None, transport(iso.f_inv, sigmas[0])]
    stabilized_at = None
    while stabilized_at is None or len(sigmas) < 8:
        assert len(sigmas) <= 32, "the sigma/theta recursion did not stabilize"
        n = len(sigmas) - 1
        sigmas.append(transport(iso.Q.projection, thetas[n]))
        thetas.append(transport(iso.f_inv, sigmas[n]))
        if stabilized_at is None and sigmas[-1].rep == sigmas[n].rep \
                and thetas[-1].rep == thetas[n].rep:
            stabilized_at = n + 1

    L = all_congruences(A)
    image = L.index[iso.fhat(zeta).rep]
    options = [c for c in ks if L.factor_pair(image, L.index[c.rep])]
    if complement is not None and complement.rep not in {c.rep for c in options}:
        raise ValidationError("supplied complement is not a factor complement of f_hat(zeta) in K(A)")
    if not options:
        raise ValidationError("no complement available for f_hat(zeta) in K(A)")
    chosen = options[0] if complement is None else complement
    neg_odd, ds = sequence_tail(sigmas, iso.fhat_inv(chosen), iso.fhat, congruence_join)
    return CbsSequenceState(
        algebra=A, theta=theta, zeta=zeta, kind=kind,
        sigmas=sigmas, thetas=thetas, neg_odd=neg_odd, ds=ds,
        complement_used=chosen, complement_options=options,
        stabilized=stabilized_at is not None, stabilized_at=stabilized_at,
    )


def f_hat_interval_check(A, f, theta, kind):
    """Re-check that f_hat maps K(A) order-isomorphically onto K(A) above theta."""
    from cbswb.cbs import operator_eval

    iso = QuotientIso(A, f, theta)
    ks = operator_eval(A, kind)
    interval = {c.rep for c in ks if rep_leq(theta.rep, c.rep)}
    images = [iso.fhat(s) for s in ks]
    image_reps = {i.rep for i in images}
    onto = image_reps == interval
    injective = len(image_reps) == len(ks)
    order = all(rep_leq(a.rep, b.rep) == rep_leq(images[i].rep, images[j].rep)
                for i, a in enumerate(ks) for j, b in enumerate(ks))
    roundtrip = all(iso.fhat_inv(image).rep == s.rep for image, s in zip(images, ks))
    return {
        "ok": onto and injective and order and roundtrip,
        "onto_interval": onto,
        "injective": injective,
        "order_preserving": order,
        "inverse_roundtrip": roundtrip,
    }


def sigma_bracket(A, theta, sigma, kind):
    """<sigma>_theta: congruences below theta in K(A) whose quotient matches A/sigma."""
    from cbswb.algebra import iso_search, quotient_algebra
    from cbswb.cbs import operator_eval
    from cbswb.errors import ValidationError

    ks = operator_eval(A, kind)
    reps = {c.rep for c in ks}
    if theta.rep not in reps or sigma.rep not in reps:
        raise ValidationError("theta and sigma must belong to K(A)")
    if not rep_leq(sigma.rep, theta.rep):
        raise ValidationError("sigma must lie below theta")
    base = quotient_algebra(A, sigma).algebra
    return [zeta for zeta in ks if rep_leq(zeta.rep, theta.rep)
            and iso_search(base, quotient_algebra(A, zeta).algebra)]


def infimum_in_k(L, at, ds):
    """Infimum of the d-terms inside K(A) per the two-stage rule.

    K(A) is given by its positions at in Con(A) = L.  First the plain
    congruence meet; if that leaves K(A), the greatest K(A)-element below
    all d-terms, when one exists.
    """
    leq, M = L.leq, L.meet_table
    ds = [L.index[d.rep] for d in ds]
    meet = L.top
    for d in ds:
        meet = M[meet][d]
    if meet in at:
        return L.elements[meet], "meet"
    below = [i for i in at if all(leq[i][d] for d in ds)]
    for cand in below:
        if all(leq[other][cand] for other in below):
            return L.elements[cand], "greatest_in_k"
    return None, "does not exist"


def cbs_property_search(A, kind):
    """cbs_property_check's report with the isomorphism searched for every
    member of K(A), a quotient built for each."""
    from cbswb.algebra import iso_search, quotient_algebra
    from cbswb.cbs import operator_eval

    ks = operator_eval(A, kind)
    anchors = [c for c in ks if iso_search(A, quotient_algebra(A, c).algebra)]
    anchor_reps = {c.rep for c in anchors}
    pairs = [(t, s) for t in anchors for s in ks if rep_leq(s.rep, t.rep)]
    witnesses = [{"theta": t.to_blocks_list(), "sigma": s.to_blocks_list()}
                 for t, s in pairs if s.rep not in anchor_reps]
    return {
        "algebra": A.name,
        "kind": kind.label(),
        "holds": not witnesses,
        "nontrivial": any(not c.is_diagonal() for c in anchors),
        "self_isomorphic": [c.to_blocks_list() for c in anchors],
        "checked": len(pairs),
        "witnesses": witnesses,
    }


def cbs_property_direct(A, partners, kind):
    """Definition form of the CBS property against a list of partner algebras.

    Whenever A matches B/theta_B and B matches A/theta_A for operator
    congruences, A and B themselves must be isomorphic.
    """
    from cbswb.algebra import iso_search, quotient_algebra
    from cbswb.cbs import operator_eval

    ka = operator_eval(A, kind)
    instances, failures = 0, []
    for B in partners:
        if B.signature() != A.signature():
            continue
        kb = operator_eval(B, kind)
        down_b = [tb for tb in kb if iso_search(A, quotient_algebra(B, tb).algebra)]
        if not down_b:
            continue
        down_a = [ta for ta in ka if iso_search(B, quotient_algebra(A, ta).algebra)]
        isomorphic = iso_search(A, B) is not None
        for tb in down_b:
            for ta in down_a:
                instances += 1
                if not isomorphic:
                    failures.append({
                        "partner": B.name,
                        "theta_b": tb.to_blocks_list(),
                        "theta_a": ta.to_blocks_list(),
                    })
    return {
        "algebra": A.name,
        "kind": kind.label(),
        "holds": not failures,
        "instances": instances,
        "failures": failures,
    }


def cbs_complete_search(A, kind, f=None, theta=None, sigma=None):
    """cbs_complete_check's report from the general search below theta.

    Tries each zeta in <sigma>_theta and each complement choice, computes
    the d-term infimum inside K(A), checks the factor-pair conditions
    (skipped when K(A) is Boolean), and assembles the isomorphism chain
    A ~ A/neg_chi x A/chi ~ A/neg_chi x A/sigma_zeta ~ A/zeta ~ A/sigma.
    theta and sigma default to the diagonal and f to the natural projection.
    """
    from cbswb.algebra import direct_product, iso_search, quotient_algebra
    from cbswb.cbs import boolean_sublattice_check, operator_eval
    from cbswb.congruence import Congruence, all_congruences
    from cbswb.errors import ValidationError
    from cbswb.structure import decomposition_witness

    theta = theta if theta is not None else Congruence.diagonal(A)
    sigma = sigma if sigma is not None else Congruence.diagonal(A)
    iso = QuotientIso(A, f, theta)
    ks = operator_eval(A, kind)
    L = all_congruences(A)
    E, index = L.elements, L.index
    at = [index[c.rep] for c in ks]
    boolean = boolean_sublattice_check(A, ks)["ok"]

    def complements(x):
        return [c for c in ks if L.factor_pair(index[x.rep], index[c.rep])]

    def equation(claim, ok, iso=None):
        entry = {"claim": claim, "ok": bool(ok)}
        if iso is not None:
            entry["iso"] = list(iso.mapping)
        return entry

    report = {
        "algebra": A.name,
        "kind": kind.label(),
        "theta": theta.to_blocks_list(),
        "sigma": sigma.to_blocks_list(),
        "boolean_operator": boolean,
        "verdict": "not certified",
        "certificate": None,
        "tried": [],
        "skipped": [],
    }
    bracket = sigma_bracket(A, theta, sigma, kind)
    conc = iso_search(A, quotient_algebra(A, sigma).algebra)
    for zeta in bracket:
        options = complements(iso.fhat(zeta))
        if not options:
            report["skipped"].append({
                "zeta": zeta.to_blocks_list(),
                "reason": "no complement for f_hat(zeta) in K(A)",
            })
            continue
        for comp in options:
            attempt = {"zeta": zeta.to_blocks_list(), "complement": comp.to_blocks_list()}
            state = general_cbs_sequence(A, f, theta, zeta, kind, complement=comp)
            sz, how = infimum_in_k(L, at, state.ds[1:])
            if sz is None:
                attempt["failure"] = "d-term infimum does not exist in K(A)"
                report["tried"].append(attempt)
                continue
            attempt["sigma_zeta"] = sz.to_blocks_list()
            attempt["infimum_via"] = how

            z, n1, i_sz = index[zeta.rep], index[state.neg_odd[1].rep], index[sz.rep]
            chis = [(c, *chi_pair(z, n1, i_sz, index[c.rep], L.meet, L.join))
                    for c in complements(sz)]
            paired = [p for p in chis if L.factor_pair(p[1], p[2])]
            if not paired:
                attempt["failure"] = ("no complement of sigma_zeta closes both factor pairs"
                                      if not boolean else
                                      "Boolean operator but complement of sigma_zeta is missing")
                report["tried"].append(attempt)
                continue
            nsz, i_chi, i_neg_chi = paired[0]
            chi, neg_chi = E[i_chi], E[i_neg_chi]
            attempt["neg_sigma_zeta"] = nsz.to_blocks_list()
            attempt["chi"] = chi.to_blocks_list()
            attempt["neg_chi"] = neg_chi.to_blocks_list()
            attempt["condition2_required"] = not boolean

            try:
                w = decomposition_witness(A, neg_chi, chi)
            except ValidationError:
                attempt["failure"] = "chi decomposition is not a factor pair"
                report["tried"].append(attempt)
                continue
            equations = [equation("A ~ A/neg_chi x A/chi", True, w["iso"])]
            Qz = quotient_algebra(A, zeta).algebra
            Qnc = quotient_algebra(A, neg_chi).algebra
            Qsz = quotient_algebra(A, sz).algebra
            hit2 = iso_search(Qz, direct_product(Qnc, Qsz))
            equations.append(equation("A/zeta ~ A/neg_chi x A/sigma_zeta", hit2, hit2))
            fchi = iso.fhat(chi)
            hit3 = iso_search(quotient_algebra(A, chi).algebra,
                              quotient_algebra(A, fchi).algebra)
            equations.append(equation("A/chi ~ A/f_hat(chi)", hit3, hit3))
            equations.append(equation("f_hat(chi) = sigma_zeta", fchi.rep == sz.rep))
            conclusion = equation("A ~ A/sigma", conc, conc)

            if all(e["ok"] for e in equations) and conclusion["ok"]:
                report["verdict"] = "certified"
                report["certificate"] = {
                    **attempt,
                    "equations": equations,
                    "conclusion": conclusion,
                    "sequence": state.to_report(),
                }
                return report
            attempt["failure"] = "equation chain did not close"
            attempt["equations"] = equations
            attempt["conclusion"] = conclusion
            report["tried"].append(attempt)
    return report


def relative_sentence_checks(A, kind):
    """How many sentence checks presheaf_check runs for a relative kind: one
    per distinct quotient table (size and operations) of A, of each quotient
    of A by a K(A) member and of the relabelled copy, since each K builds on
    relative_congruences, which checks a repeated table once."""
    from cbswb.algebra import quotient_algebra, relabel
    from cbswb.cbs import operator_eval
    from cbswb.congruence import all_congruences

    def tables(B):
        return len({(Q.size, Q.ops) for Q in
                    (quotient_algebra(B, theta).algebra for theta in all_congruences(B))})

    copy, _ = relabel(A, [(x + 1) % A.size for x in range(A.size)])
    return tables(A) + tables(copy) + sum(
        tables(quotient_algebra(A, theta).algebra) for theta in operator_eval(A, kind))


def presheaf_correspondence(A, kind):
    """presheaf_check's correspondence block by refinement scans.

    For every sigma in K(A), the members of K(A) above sigma, each lifted
    to A/sigma, must be exactly K(A/sigma), and refinement must hold
    between two of them exactly when it holds between their lifts.  The
    lifts are looked up as quotient_lift in cbswb.congruence when called.
    """
    from cbswb.algebra import quotient_algebra
    from cbswb.cbs import operator_eval
    from cbswb.congruence import quotient_lift, transport

    ks = operator_eval(A, kind)
    block = {"ok": True, "violations": []}
    for s in ks:
        Q = quotient_algebra(A, s)
        kq = operator_eval(Q.algebra, kind)
        kq_reps = {q.rep for q in kq}
        above = [t for t in ks if rep_leq(s.rep, t.rep)]
        above_reps = {t.rep for t in above}
        down = {t.rep: quotient_lift(Q, t) for t in above}
        missing = [t for t in above if down[t.rep].rep not in kq_reps]
        extra = [q for q in kq if transport(Q.projection, q).rep not in above_reps]
        order_ok = all(rep_leq(t1.rep, t2.rep) == rep_leq(down[t1.rep].rep, down[t2.rep].rep)
                       for t1 in above for t2 in above)
        if missing or extra or not order_ok:
            block["ok"] = False
            block["violations"].append({
                "sigma": s.to_blocks_list(),
                "missing_in_quotient": [t.to_blocks_list() for t in missing],
                "extra_in_quotient": [q.to_blocks_list() for q in extra],
                "order_isomorphic": order_ok,
            })
    return block


def _lift_rep(Q, rep):
    """theta/sigma on Q = A/sigma as a rep array, for the rep array of a
    theta above sigma: each block of Q takes the theta-class of its members."""
    keys = [None] * Q.algebra.size
    for a, q in enumerate(Q.projection.mapping):
        keys[q] = rep[a]
    first = {}
    return tuple(first.setdefault(k, q) for q, k in enumerate(keys))


def presheaf_factor(A, kind):
    """presheaf_check's factor block by check_factor_pair scans.

    Every member theta of K(A) needs a factor complement in Con(A)
    (subset_of_fc) and one in K(A) (missing_complement).  For every sigma in
    K(A), every theta in K(A) above it and every factor complement c of
    theta in K(A), (theta/sigma, (c v sigma)/sigma) must be a factor pair of
    A/sigma with both members in K(A/sigma); each pair that is not is listed.
    Joins are transitive closures and lifts map blocks through the projection.
    """
    from cbswb.algebra import quotient_algebra
    from cbswb.cbs import operator_eval
    from cbswb.congruence import Congruence, all_congruences
    from cbswb.structure import check_factor_pair

    n = A.size
    cons = all_congruences(A).elements
    ks = operator_eval(A, kind)

    def factor_mates(theta, family):
        return [c for c in family if check_factor_pair(A, theta, c)["ok"]]

    pairs = []
    for s in ks:
        Q = quotient_algebra(A, s)
        kq = {q.rep for q in operator_eval(Q.algebra, kind)}
        for t in ks:
            if not refines(s.rep, t.rep):
                continue
            image = Congruence(Q.algebra, _lift_rep(Q, t.rep))
            for c in factor_mates(t, ks):
                mate = Congruence(Q.algebra, _lift_rep(Q, join_closure([c.rep, s.rep], n)))
                verdict = check_factor_pair(Q.algebra, image, mate)
                in_k = image.rep in kq and mate.rep in kq
                if not verdict["ok"] or not in_k:
                    pairs.append({
                        "sigma": s.to_blocks_list(),
                        "theta": t.to_blocks_list(),
                        "complement": c.to_blocks_list(),
                        "pair_ok": verdict["ok"],
                        "reason": verdict["reason"],
                        "in_operator": in_k,
                    })
    subset_bad = [t.to_blocks_list() for t in ks if not factor_mates(t, cons)]
    missing = [t.to_blocks_list() for t in ks if not factor_mates(t, ks)]
    return {
        "ok": not (subset_bad or missing or pairs),
        "subset_of_fc": subset_bad,
        "missing_complement": missing,
        "quotient_pairs": pairs,
    }


def center_pair_checks(A, center):
    """z_con_report's pair_checks by check_factor_pair: each central
    congruence, given as blocks in the report's order, with each of its
    complements in Con(A), the congruences that meet it in the diagonal and
    join it to the total congruence, in canonical order."""
    from cbswb.congruence import Congruence, all_congruences
    from cbswb.structure import check_factor_pair

    n = A.size
    cons = all_congruences(A).elements
    out = []
    for blocks in center:
        z = Congruence.from_blocks(A, blocks)
        for c in cons:
            diagonal_meet = meet_rep(z.rep, c.rep) == tuple(range(n))
            if diagonal_meet and join_closure([z.rep, c.rep], n) == (0,) * n:
                verdict = check_factor_pair(A, z, c)
                out.append({"theta": blocks, "complement": c.to_blocks_list(),
                            "ok": verdict["ok"], "reason": verdict["reason"]})
    return out


# ---------------------------------------------------------------------------
# symbolic runs on sets
#
# The symbolic validator and the countable infimum decide their laws on
# integer windows; the forms below are the set-operation routes they are
# checked against, with every comparison a PeriodicSet operation.


def replaced(run, **changes):
    """A shallow copy of a symbolic run with the named attributes set."""
    out = copy.copy(run)
    vars(out).update(changes)
    return out


def omega_validate_sets(run):
    """omega_validate with every law decided by PeriodicSet operations."""
    from cbswb.omega import ShiftIso, sequence_shape
    from cbswb.pset import PeriodicSet

    def pairs_may_fail(ds):
        # a pair of d-terms misses a coordinate only if two complements share
        # it, so one linear pass decides whether the pairs need checking
        seen = twice = PeriodicSet.empty()
        for d in ds:
            gap = d.complement()
            twice = twice.union(seen.intersect(gap))
            seen = seen.union(gap)
        return not twice.is_empty()

    iso = ShiftIso(run.k)
    out = sequence_shape(run.sigmas, run.thetas, run.neg_odd, run.ds)
    if out:
        return out
    lattice = SequenceLattice(
        iso.fhat, PeriodicSet.union, PeriodicSet.subset,
        PeriodicSet.is_empty, lambda S: S == PeriodicSet.naturals(),
        ("union", "misses coordinates", "the complement rule"), pairs_may_fail,
    )
    neg1 = iso.fhat_inv(iso.fhat(run.zeta).complement())
    out += sequence_violations(lattice, run.sigmas, run.zeta, run.neg_odd, neg1, run.ds)
    for n in range(1, len(run.thetas)):
        if run.thetas[n] != run.sigmas[n - 1]:
            out.append(f"theta[{n}] is not the image of sigma[{n - 1}]")
    for n in range(1, len(run.ds)):
        if not run.sigma_zeta.subset(run.ds[n]):
            out.append(f"sigma_zeta is not below d[{n}]")
    chi, neg_chi = chi_pair(run.zeta, neg1, run.sigma_zeta, run.sigma_zeta.complement(),
                            PeriodicSet.intersect, PeriodicSet.union)
    if run.chi != chi:
        out.append("chi does not match its definition")
    if run.neg_chi != neg_chi:
        out.append("neg_chi does not match its definition")
    return out


def countable_infimum_sets(family):
    """countable_infimum with the candidate built from membership lists and
    tested against every term by PeriodicSet.subset."""
    import math

    from cbswb.errors import ValidationError
    from cbswb.pset import PeriodicSet

    k = family.k
    base_period = math.lcm(family.v1.period, family.fixed.period)
    pattern = base_period * k
    n0 = max(family.v1.threshold, family.fixed.threshold, k)
    settle = n0 + 2 * pattern
    window = settle + 2 * pattern
    n_max = 2 * ((window + k - 1) // k + 1)  # twice coordinate window - 1's bound
    terms = family.terms(n_max)

    def span(lo, hi):
        lo, hi = max(lo, 0), min(hi, window)
        return (1 << hi) - (1 << lo) if lo < hi else 0

    full = span(0, window)
    bits = full
    at_bound = unstable = 0
    for n, term in enumerate(terms, 1):
        w = term.bits_below(window)
        read = span(((n + 1) // 2 - 2) * k, window)
        bits &= w | full ^ read
        at_bound |= w & span((n - 2) * k, (n - 1) * k)
        unstable |= (w ^ at_bound) & read & span(0, (n - 1) * k)
    if unstable:
        raise ValidationError("infimum not representable")

    residues = {x % pattern for x in range(settle, settle + pattern) if bits >> x & 1}
    candidate = PeriodicSet(settle, [bits >> x & 1 for x in range(settle)], pattern, residues)
    if candidate.bits_below(window) != bits:
        raise ValidationError("infimum not representable")
    for term in terms:
        if not candidate.subset(term):
            raise ValidationError("infimum not representable")

    return candidate, {
        "window": window,
        "terms_checked": n_max,
        "stabilization_bound": "ceil((x+1)/k)+1",
        "pattern_period": pattern,
    }


def truncation_pairing_entry(run, m):
    """The failure entry truncate_validate gives "pairing B ~ B/neg_chi x B/chi"
    at a materialized m, None when the law holds, by building the
    decomposition B -> B/neg_chi x B/chi on the restricted congruences."""
    from cbswb.algebra import power_algebra
    from cbswb.errors import ValidationError
    from cbswb.omega import OmegaCongruence
    from cbswb.structure import decomposition_witness

    B = power_algebra(run.base, m)
    neg_chi, chi = (OmegaCongruence(run.base, S).restrict(B, m) for S in (run.neg_chi, run.chi))
    try:
        decomposition_witness(B, neg_chi, chi)
    except ValidationError as e:
        return {"name": "pairing B ~ B/neg_chi x B/chi", "ok": False,
                "witness": {"pair": ["neg_chi", "chi"], "reason": str(e)}}
    return None


# ---------------------------------------------------------------------------
# automorphisms
#
# The package reads its isomorphism search through iso_search and, in
# presheaf_check, through samples of the generator; the tests list the
# whole automorphism group through it here.


def automorphisms(A, max_size=None):
    """Every automorphism of A, in lexicographic order, from the package's
    isomorphism search under its carrier cap (DEFAULT_ISO_CAP when none is
    given); no map is re-checked."""
    from cbswb.algebra import DEFAULT_ISO_CAP, Homomorphism, _isomorphisms

    cap = DEFAULT_ISO_CAP if max_size is None else max_size
    return [Homomorphism._built(A, A, m) for m in _isomorphisms(A, A, cap)]
