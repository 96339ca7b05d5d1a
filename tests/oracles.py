"""Independent brute-force oracles the tests pin the implementations against.

Everything here recomputes results from first principles: set partitions by
restricted growth strings, compatibility by comparing all blockwise-equal
argument tuples, term values by direct recursion, periodic-set operations
by pointwise membership over a window.  None of it shares code with the
package beyond the public data shapes.  The partitions of each n are kept
as rep arrays after their first enumeration, for the congruence oracles
filter them again and again.
"""

import functools
import itertools


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
    from cbswb import Homomorphism

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
