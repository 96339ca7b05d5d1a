"""Congruences of finite algebras and the lattice they form.

A congruence is stored as its least-representative array: rep[x] is the
smallest element of the block of x.  Blocks are kept sorted by least
element, which fixes a canonical form for every partition and a global
ordering of Con(A) by (descending block count, lexicographic rep array).
Read as links x -> rep[x], the array is a forest whose roots are the least
elements of the blocks: generated congruences, joins and the Con(A)
closure all merge blocks by linking roots in such a forest (_merge) and
flatten it back into an array in one ascending pass (_flatten).

Con(A) is the join closure of the principal congruences, up to
CON_COUNT_CAP members.  Each is closed once, reusing those closed before it
and stopping at one that relates its pair, and joins the closure once; the
order is read off n^2-bit pair masks with no pairwise congruence arithmetic.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional, Sequence

from .algebra import (
    DEFAULT_EVAL_BUDGET,
    FiniteAlgebra,
    Homomorphism,
    Quotient,
    _quotient_name,
    cell_type,
    compose as compose_cells,
    gather,
    quotient_algebra,
    satisfies,
    table_args,
)
from .errors import ValidationError, over_budget
from .lattice import FiniteLattice

DEFAULT_CON_CAP = 8
# most members all_congruences enumerates before it raises BudgetError
CON_COUNT_CAP = 1024


def _merge(lab: list, pairs, merged=None) -> int:
    """Merge the blocks of each pair (x, y) in the least-element forest lab.

    lab[x] <= x, with lab[x] == x exactly at the least element of a block,
    which is its root.  A merge links the larger root under the smaller, so
    every link points down and each root stays the least element of its
    block; finds halve their paths (R. E. Tarjan, Efficiency of a good but
    not linear set union algorithm, 1975).  Returns the number of merges
    and appends the two roots of each one to merged when it is given.
    """
    count = 0
    for x, y in pairs:
        if lab[x] == lab[y]:
            continue  # one parent, one block: the common case late in a closure
        while lab[x] != x:
            # path halving: x's link skips to its grandparent, then x moves there
            lab[x] = x = lab[lab[x]]
        while lab[y] != y:
            lab[y] = y = lab[lab[y]]
        if x != y:
            if x < y:
                lab[y] = x
            else:
                lab[x] = y
            count += 1
            if merged is not None:
                merged.append((x, y))
    return count


def _flatten(lab: list) -> tuple:
    """Least-representative array of a least-element forest.

    Every link points down, so in one ascending pass lab[lab[x]] is already
    the root of x.
    """
    for x, r in enumerate(lab):
        lab[x] = lab[r]
    return tuple(lab)


def _links(rep) -> list:
    """The non-trivial (x, rep[x]) links of a least-representative array."""
    return [(x, r) for x, r in enumerate(rep) if r != x]


def least_rep(keys) -> tuple:
    """Least-representative array of x ~ y iff keys[x] == keys[y].

    x ascends, so the first element met with a key is the least of its block.
    """
    first = {}
    return tuple([first.setdefault(k, x) for x, k in enumerate(keys)])


def _blocks_from_rep(rep):
    groups = {}
    for x, r in enumerate(rep):
        groups.setdefault(r, []).append(x)
    return tuple(tuple(groups[r]) for r in sorted(groups))


class Congruence:
    """Compatible partition of an algebra's carrier, in canonical form."""

    def __init__(self, algebra: FiniteAlgebra, rep: Sequence[int]):
        rep = tuple(rep)
        if len(rep) != algebra.size:
            raise ValidationError("rep array length differs from carrier size")
        for x, r in enumerate(rep):
            # least-representative form: rep[r] == r and rep[x] <= x
            if not (0 <= r <= x) or rep[r] != r:
                raise ValidationError("rep array is not in least-representative form")
        self.algebra = algebra
        self.rep = rep
        self.nblocks = len(set(rep))

    @cached_property
    def blocks(self):
        # built on first use: most joins of the Con(A) closure only meet a
        # congruence already found, and never look at its blocks
        return _blocks_from_rep(self.rep)

    @staticmethod
    def from_blocks(algebra: FiniteAlgebra, blocks) -> "Congruence":
        """Build from a block list, validating the partition and its
        compatibility with every operation."""
        seen = {}
        for b in blocks:
            if not b:
                raise ValidationError("empty block in partition")
            for x in b:
                if not isinstance(x, int) or isinstance(x, bool) or not (0 <= x < algebra.size):
                    raise ValidationError(f"partition entry {x!r} out of range")
                if x in seen:
                    raise ValidationError(f"element {x} occurs twice in partition")
                seen[x] = min(b)
        if len(seen) != algebra.size:
            # named by count and least element: the carrier may be huge
            least = next(x for x in range(algebra.size) if x not in seen)
            raise ValidationError(f"partition misses {algebra.size - len(seen)} elements, "
                                  f"the least of them {least}")
        rep = tuple(seen[x] for x in range(algebra.size))
        witness = compatibility_witness(algebra, rep)
        if witness is not None:
            raise ValidationError(f"partition is not a congruence: {witness}")
        return Congruence(algebra, rep)

    @staticmethod
    def diagonal(algebra: FiniteAlgebra) -> "Congruence":
        return Congruence(algebra, tuple(range(algebra.size)))

    @staticmethod
    def total(algebra: FiniteAlgebra) -> "Congruence":
        return Congruence(algebra, (0,) * algebra.size)

    def block_index(self):
        """Index of each element's block in the sorted block list, as a list."""
        idx = [0] * len(self.rep)
        for i, b in enumerate(self.blocks):
            for x in b:
                idx[x] = i
        return idx

    def is_diagonal(self) -> bool:
        return self.nblocks == self.algebra.size

    def is_total(self) -> bool:
        return self.nblocks == 1

    def key(self):
        """Canonical sort key: descending block count, then rep array."""
        return (-self.nblocks, self.rep)

    def to_blocks_list(self):
        return [list(b) for b in self.blocks]

    def _same_parent(self, other):
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise ValidationError(
                f"congruences live on different algebras: {self.algebra.name!r} vs {other.algebra.name!r}"
            )

    def __eq__(self, other):
        if not isinstance(other, Congruence):
            return NotImplemented
        return self.rep == other.rep and (
            self.algebra is other.algebra or self.algebra == other.algebra
        )

    def __hash__(self):
        return hash((self.algebra.name, self.rep))

    def __repr__(self):
        return f"Congruence({self.algebra.name!r}, {self.to_blocks_list()})"


def compatibility_witness(A: FiniteAlgebra, rep) -> Optional[dict]:
    """None when rep, a least-representative array, is compatible with every
    operation, otherwise a witness.

    rep o f must equal f(rep(a1), .., rep(ak)) read through rep, the check of
    Homomorphism.  With rep least, rep applied to a is the first tuple of a's
    block tuple in table order: the witness pairs it with the first a in
    table order whose value lands in another block."""
    for op in A.ops:
        cells = compose_cells(op.table, rep, A.size)
        image = gather(cells, rep, op.arity, A.size)
        if cells != image:
            i = next(i for i, (u, v) in enumerate(zip(image, cells)) if u != v)
            args = table_args(op.arity, A.size, i)
            return {
                "operation": op.name,
                "args": [rep[a] for a in args],
                "other_args": list(args),
                "values": [image[i], cells[i]],
            }
    return None


def _translation_columns(A: FiniteAlgebra):
    """cols[x][i] is the value at x of the i-th basic translation of A.

    A basic translation fixes every argument of one operation but one.  The
    position of stride s (n**(k-1-pos) in the mixed-radix encoding) and the
    context starting at cell b read x at cell b + x*s.  Each distinct
    translation other than the identity is kept once, in order of first
    appearance (operation by operation, position by position, contexts in
    table order): the closure under translations does not depend on
    repeats or on the identity.
    """
    n = A.size
    # keyed by slices of the tables, so the identity has their type
    identity = cell_type(n)(range(n))
    seen = {identity: None}
    for op in A.ops:
        table = op.table
        for pos in range(op.arity):
            stride = n ** (op.arity - 1 - pos)
            for hi in range(0, len(table), stride * n):
                for b in range(hi, hi + stride):
                    seen.setdefault(table[b : b + stride * n : stride])
    del seen[identity]
    return list(zip(*seen)) if seen else [()] * n


def _generated_rep(n: int, pairs, cols, known=None) -> tuple:
    """Least-representative array of the congruence generated by pairs,
    which must lie in range(n); see generated_congruence.  known maps pairs
    (u, v) to the rep arrays of Cg(u, v), for pairs [(a, b)] only: an image
    with a known Cg(u, v) merges its links whole and pushes none, as it is
    closed, and one relating a and b is Cg(a, b), each holding the other's
    generator."""
    lab = list(range(n))
    work = []
    blocks = n - _merge(lab, pairs, work)
    while work and blocks > 1:
        x, y = work.pop()
        images = zip(cols[x], cols[y])
        if known:
            (a, b), fresh = pairs[0], []
            for u, v in images:
                if lab[u] == lab[v]:
                    continue
                hit = known.get((u, v))
                if hit is None:
                    fresh.append((u, v))
                elif hit[a] == hit[b]:
                    return hit
                else:
                    blocks -= _merge(lab, enumerate(hit))
            images = fresh
        blocks -= _merge(lab, images, work)
    return _flatten(lab)


def generated_congruence(A: FiniteAlgebra, pairs) -> Congruence:
    """Smallest congruence of A containing the given pairs.

    Closure under basic translations: a congruence is an equivalence closed
    under every unary map x -> f(c1, .., x, .., ck), so whenever a merge
    joins two blocks, the translation columns of their roots are zipped and
    every pair of values merged in turn, until the worklist drains or one
    block is left (R. Freese, Computing congruences efficiently, 2008).
    """
    n = A.size
    pairs = list(pairs)
    for a, b in pairs:
        if not (0 <= a < n and 0 <= b < n):
            raise ValidationError(f"pair ({a}, {b}) out of range")
    cols = _translation_columns(A) if pairs else None
    return Congruence(A, _generated_rep(n, pairs, cols))


def principal_congruence(A: FiniteAlgebra, a: int, b: int) -> Congruence:
    if not (0 <= a < A.size and 0 <= b < A.size):
        raise ValidationError(f"elements ({a}, {b}) out of range")
    return generated_congruence(A, [(a, b)])


def congruence_meet(t1: Congruence, t2: Congruence) -> Congruence:
    t1._same_parent(t2)
    return Congruence(t1.algebra, least_rep(zip(t1.rep, t2.rep)))


def congruence_join(t1: Congruence, t2: Congruence) -> Congruence:
    """Join in Con(A); both arguments must be congruences of one algebra.

    Con(A) is a sublattice of the equivalence lattice Eq(A), so the join is
    the transitive closure of the union of the two relations: the links of
    t2 merged into the forest of t1, with no operation closure.
    """
    t1._same_parent(t2)
    lab = list(t1.rep)
    _merge(lab, _links(t2.rep))
    return Congruence(t1.algebra, _flatten(lab))


def compose(t1: Congruence, t2: Congruence):
    """Relational product t1 o t2 as a frozenset of pairs, and the
    permutability flag.

    (a, b) is in t1 o t2 when some w has a t1 w and w t2 b.  The flag is
    true exactly when the two composition orders agree as relations.
    """
    t1._same_parent(t2)
    forward = _relation_product(t1, t2)
    return forward, forward == _relation_product(t2, t1)


def _relation_product(first: Congruence, second: Congruence) -> frozenset:
    second_idx = second.block_index()
    pairs = set()
    for block in first.blocks:
        reachable = set()
        for w in block:
            reachable.update(second.blocks[second_idx[w]])
        for a in block:
            for b in reachable:
                pairs.add((a, b))
    return frozenset(pairs)


class CongruenceLattice(FiniteLattice):
    """Con(A), or a sublattice of it closed under meet and join, as a
    finite lattice over the congruences in canonical order.  The order
    comes from n^2-bit pair masks, bit x*n + y set when x and y share a
    block.  index maps each rep array to its position.
    """

    def __init__(self, algebra: FiniteAlgebra, elements):
        self.algebra = algebra
        self.elements = tuple(sorted(elements, key=lambda c: c.key()))
        self.index = {c.rep: i for i, c in enumerate(self.elements)}
        n, masks = algebra.size, []
        for c in self.elements:
            block = dict.fromkeys(c.rep, 0)  # bitset of each block, by least element
            for x, r in enumerate(c.rep):
                block[r] |= 1 << x
            # row x of the mask, bits x*n..x*n+n-1, is the block of x
            masks.append(sum([block[r] << x * n for x, r in enumerate(c.rep)]))
        super().__init__(tuple(tuple((a & b) == a for b in masks) for a in masks))

    def factor_pair(self, i, j) -> bool:
        """check_factor_pair's verdict on elements i and j: their meet is the
        diagonal and their block counts multiply to |A|."""
        E, n = self.elements, self.algebra.size
        return E[i].nblocks * E[j].nblocks == n and E[self.meet_table[i][j]].nblocks == n

    @cached_property
    def factor_complements(self) -> dict:
        """FC(A): each member with a factor complement, ascending, mapped to
        its factor complements, ascending.  A factor pair's block counts
        multiply to |A|, so member i is tried only against the members with
        |A|/count(i) blocks.  With a diagonal meet each i-block meets each
        j-block at most once, and the |A| elements are those meetings, so all
        happen and the relational product is total: every pair that passes
        factor_pair is a pair of complements, and none is sought first."""
        n, by_count = self.algebra.size, {}
        for j, c in enumerate(self.elements):
            by_count.setdefault(c.nblocks, []).append(j)
        table = {i: tuple(j for j in by_count.get(n // c.nblocks, ()) if self.factor_pair(i, j))
                 for i, c in enumerate(self.elements) if n % c.nblocks == 0}
        return {i: js for i, js in table.items() if js}

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def to_report(self) -> dict:
        return {
            "algebra": self.algebra.name,
            "size": len(self.elements),
            "elements": [c.to_blocks_list() for c in self.elements],
            "order": [list(row) for row in self.leq],
            "meet": [list(row) for row in self.meet_table],
            "join": [list(row) for row in self.join_table],
            "modular": self.modular,
            "distributive": self.distributive,
        }


def all_congruences(A: FiniteAlgebra, max_size: int = DEFAULT_CON_CAP) -> CongruenceLattice:
    """Con(A) as the join closure of the principal congruences.

    Every congruence is the join of the principal congruences it contains
    (R. Freese, Computing congruences efficiently, 2008).  Cg(a, b) is
    closed pair by pair in lexicographic order, reusing those of the pairs
    before it and stopping at one that relates a and b (_generated_rep).
    The distinct ones join the closure S one at a time, in canonical order:
    one already in S is skipped, and otherwise S becomes S u (S v g),
    join-closed whenever S is.  Joins merge a principal's links into a copy
    of a bare rep array, and build a Congruence only for a new member.
    Guarded by a carrier cap (default 8) and by CON_COUNT_CAP members.  The
    lattice is kept on A and returned by later calls that pass the cap.
    """
    if A.size > max_size:
        raise over_budget("congruence enumeration", "carrier", A.size, max_size, "element")
    if A._con is not None:
        return A._con
    n = A.size
    # Cg(u, v) under (u, v) and (v, u), and the first pair (a, b) of each
    known, principals = {}, {}
    cols = _translation_columns(A)
    for a in range(n):
        for b in range(a + 1, n):
            known[a, b] = known[b, a] = rep = _generated_rep(n, [(a, b)], cols, known)
            principals.setdefault(rep, (a, b))
    # one pass over the generators closes S; s >= g when s relates (a, b)
    items = {tuple(range(n)): Congruence.diagonal(A)}
    for rep in sorted(principals, key=lambda rep: (-len(set(rep)), rep)):
        if rep in items:
            continue
        (a, b), links = principals[rep], _links(rep)
        for s in list(items):
            if s[a] != s[b]:
                lab = list(s)
                _merge(lab, links)
                joined = _flatten(lab)
                if joined not in items:
                    items[joined] = Congruence(A, joined)
                    if len(items) > CON_COUNT_CAP:
                        raise over_budget("congruence enumeration", "|Con(A)|", len(items),
                                          CON_COUNT_CAP, "member")
    A._con = CongruenceLattice(A, items.values())
    return A._con


# ---------------------------------------------------------------------------
# lifting along quotients and transport along homomorphisms


def quotient_lift(Q: Quotient, theta: Congruence) -> Congruence:
    """theta/sigma on Q = A/sigma, for theta >= sigma, sigma the kernel of
    Q.projection.  Its inverse is the pullback transport(Q.projection, .):
    the two are mutually inverse bijections between [sigma, total] and
    Con(A/sigma).  Q is the caller's quotient_algebra(A, sigma), so none is
    built here.
    """
    proj = Q.projection
    if theta.algebra != proj.source:
        raise ValidationError("argument congruence does not belong to this algebra")
    sigma, rep = least_rep(proj.mapping), theta.rep
    if any(rep[x] != rep[r] for x, r in enumerate(sigma)):
        raise ValidationError("down lift needs sigma <= theta")
    # the quotient lists the sigma-blocks by least element, as x ascends
    return Congruence(Q.algebra, least_rep([rep[x] for x, r in enumerate(sigma) if r == x]))


def quotient_through(Q: Quotient, theta: Congruence) -> Quotient:
    """quotient_algebra(A, theta) for theta >= sigma, built as
    (A/sigma)/(theta/sigma) from Q = A/sigma: only the projection of the
    smaller Q.algebra is checked, which certifies theta when Q certifies
    sigma.  Its projection from A is the composite of the two; both list
    blocks by least element, so name, tables and mapping are the direct ones.
    """
    A = Q.projection.source
    step = quotient_algebra(Q.algebra, quotient_lift(Q, theta))
    B = FiniteAlgebra._built(_quotient_name(A, theta.blocks), step.algebra.size, step.algebra.ops)
    down = step.projection.mapping
    return Quotient(B, Homomorphism._built(A, B, [down[y] for y in Q.projection.mapping]))


def transport(f: Homomorphism, theta: Congruence) -> Congruence:
    """The pullback {(a, b) : (f(a), f(b)) in theta} along any homomorphism.

    Pushforward along an isomorphism g is the pullback along g.inverse();
    along any other map the image of a congruence need not be one.
    """
    if theta.algebra != f.target:
        raise ValidationError("pullback argument must live on the target algebra")
    return Congruence(f.source, least_rep([theta.rep[y] for y in f.mapping]))


def relative_congruences(A: FiniteAlgebra, sentences, max_size: int = DEFAULT_CON_CAP,
                         budget: int = DEFAULT_EVAL_BUDGET):
    """Congruences whose quotient satisfies every given sentence, one check per distinct table."""
    verdicts, out = {}, []
    for theta in all_congruences(A, max_size=max_size):
        Q = quotient_algebra(A, theta).algebra
        key = Q.size, Q.ops  # a verdict depends on the tables alone
        if key not in verdicts:
            verdicts[key] = satisfies(Q, sentences, budget=budget)[0]
        if verdicts[key]:
            out.append(theta)
    return out
