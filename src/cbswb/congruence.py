"""Congruences of finite algebras and the lattice they form.

A congruence is stored as its least-representative array: rep[x] is the
smallest element of the block of x.  Blocks are kept sorted by least
element, which fixes a canonical form for every partition and a global
ordering of Con(A) by (descending block count, lexicographic rep array).

Con(A) is the join closure of the principal congruences, enumerated up to
CON_COUNT_CAP members.  Its order is read off n^2-bit pair masks, and its
meet and join tables off the bitsets of down-sets and up-sets, with no
pairwise congruence arithmetic: the canonical ordering is a linear
extension of the order.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional, Sequence

from .algebra import (
    DEFAULT_EVAL_BUDGET,
    FiniteAlgebra,
    Homomorphism,
    Quotient,
    image_indices,
    quotient_algebra,
    satisfies,
    table_args,
)
from .errors import BudgetError, ValidationError
from .lattice import FiniteLattice

DEFAULT_CON_CAP = 8
# most members all_congruences enumerates before it raises BudgetError
CON_COUNT_CAP = 1024


class Partition:
    """Partition of range(n) that only ever merges classes.

    label[x] names the class of x, so "same class" is one list lookup; a
    merge relabels the smaller class into the larger, so each element moves
    O(log n) times.
    """

    def __init__(self, n: int):
        self.label = list(range(n))
        self.members = [[x] for x in range(n)]
        self.count = n

    def merge(self, x: int, y: int) -> bool:
        """Join the classes of x and y; False when they were one already."""
        label, members = self.label, self.members
        lx, ly = label[x], label[y]
        if lx == ly:
            return False
        if len(members[lx]) < len(members[ly]):
            lx, ly = ly, lx
        for z in members[ly]:
            label[z] = lx
        members[lx] += members[ly]
        self.count -= 1
        return True


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
            missing = [x for x in range(algebra.size) if x not in seen]
            raise ValidationError(f"partition misses elements {missing}")
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
        """Map element -> index of its block in the sorted block list."""
        idx = {}
        for i, b in enumerate(self.blocks):
            for x in b:
                idx[x] = i
        return idx

    def is_diagonal(self) -> bool:
        return self.nblocks == self.algebra.size

    def is_total(self) -> bool:
        return self.nblocks == 1

    def refines(self, other: "Congruence") -> bool:
        """self <= other in Con(A)."""
        self._same_parent(other)
        return all(other.rep[x] == other.rep[self.rep[x]] for x in range(len(self.rep)))

    def __le__(self, other):
        return self.refines(other)

    def key(self):
        """Canonical sort key: descending block count, then rep array."""
        return (-self.nblocks, self.rep)

    def pairs(self):
        for b in self.blocks:
            for x in b:
                for y in b:
                    yield (x, y)

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
    """None when rep is compatible with every operation, otherwise a witness.

    Checks that each operation's table descends to the blocks: two argument
    tuples that agree blockwise must produce values in the same block.  The
    witness pairs the first argument tuple of a block tuple with the first
    later one that lands in another block, both in table order.
    """
    for op in A.ops:
        vals = [rep[v] for v in op.table]
        first = {}
        for idx, key in enumerate(image_indices(rep, op.arity, A.size)):
            prev = first.setdefault(key, idx)
            if vals[prev] != vals[idx]:
                return {
                    "operation": op.name,
                    "args": list(table_args(op.arity, A.size, prev)),
                    "other_args": list(table_args(op.arity, A.size, idx)),
                    "values": [vals[prev], vals[idx]],
                }
    return None


def _translation_columns(A: FiniteAlgebra):
    """cols[x][i] is the value at x of the i-th basic translation of A.

    A basic translation fixes every argument of one operation but one; the
    translations are listed operation by operation, position by position,
    contexts in table order.  The position of stride s (n**(k-1-pos) in the
    mixed-radix encoding) holds x in the runs of s cells starting at
    x*s + j*s*n.
    """
    n = A.size
    cols = [[] for _ in range(n)]
    for op in A.ops:
        table = op.table
        for pos in range(op.arity):
            stride = n ** (op.arity - 1 - pos)
            for x, col in enumerate(cols):
                if stride == 1:
                    col.extend(table[x::n])
                else:
                    for start in range(x * stride, len(table), stride * n):
                        col.extend(table[start : start + stride])
    return cols


def generated_congruence(A: FiniteAlgebra, pairs, cols=None) -> Congruence:
    """Smallest congruence of A containing the given pairs.

    Closure under basic translations: a congruence is an equivalence closed
    under every unary map x -> f(c1, .., x, .., ck), so whenever a pair
    (x, y) merges two classes, the translation columns of x and y are
    zipped and every pair of values merged in turn, until the worklist
    drains or one class is left (R. Freese, Computing congruences
    efficiently, 2008).  cols, when given, is _translation_columns(A),
    shared between calls.
    """
    n = A.size
    part = Partition(n)
    work = []
    for a, b in pairs:
        if not (0 <= a < n and 0 <= b < n):
            raise ValidationError(f"pair ({a}, {b}) out of range")
        if part.merge(a, b):
            work.append((a, b))
    if work:
        if cols is None:
            cols = _translation_columns(A)
        label = part.label
        while work and part.count > 1:
            x, y = work.pop()
            for u, v in zip(cols[x], cols[y]):
                if label[u] != label[v]:
                    part.merge(u, v)
                    work.append((u, v))
    return Congruence(A, least_rep(part.label))


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
    the transitive closure of the union of the two relations: one merging
    pass over both rep arrays, with no operation closure.
    """
    t1._same_parent(t2)
    part = Partition(len(t1.rep))
    for rep in (t1.rep, t2.rep):
        for x, r in enumerate(rep):
            if r != x:
                part.merge(x, r)
    return Congruence(t1.algebra, least_rep(part.label))


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
    """Con(A), or a sublattice of it, as a finite lattice: order, meet and
    join tables over the congruences in canonical order, with its
    modularity flags.

    The elements must be closed under meet and join.  The order comes from
    n^2-bit pair masks (bit x*n + y set when x and y share a block), and
    the tables from the up-sets and down-sets of the order as bitsets:
    canonical order lists a congruence after every congruence below it, so
    a join is the lowest index among the common upper bounds and a meet the
    highest among the common lower bounds.  index maps each rep array to its
    position.
    """

    def __init__(self, algebra: FiniteAlgebra, elements):
        self.algebra = algebra
        self.elements = tuple(sorted(elements, key=lambda c: c.key()))
        self.index = {c.rep: i for i, c in enumerate(self.elements)}
        n = algebra.size
        masks = []
        for c in self.elements:
            mask = 0
            for block in c.blocks:
                row = sum(1 << y for y in block)
                for x in block:
                    mask |= row << (x * n)
            masks.append(mask)
        leq = tuple(tuple((a & b) == a for b in masks) for a in masks)
        m = len(masks)
        up = [sum(1 << j for j in range(m) if row[j]) for row in leq]
        down = [sum(1 << j for j in range(m) if leq[j][i]) for i in range(m)]
        super().__init__(
            leq,
            tuple(tuple((d & e).bit_length() - 1 for e in down) for d in down),
            tuple(tuple((u & v & -(u & v)).bit_length() - 1 for v in up) for u in up),
        )
        self.modular = self.is_modular()
        self.distributive = self.is_distributive()

    def factor_pair(self, i, j) -> bool:
        """check_factor_pair's verdict on elements i and j: their meet is the
        diagonal and their block counts multiply to |A|."""
        E, n = self.elements, self.algebra.size
        return E[i].nblocks * E[j].nblocks == n and E[self.meet_table[i][j]].nblocks == n

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def to_report(self) -> dict:
        return {
            "algebra": self.algebra.name,
            "size": len(self.elements),
            "elements": [c.to_blocks_list() for c in self.elements],
            "order": [[bool(v) for v in row] for row in self.leq],
            "meet": [list(row) for row in self.meet_table],
            "join": [list(row) for row in self.join_table],
            "modular": self.modular,
            "distributive": self.distributive,
        }


def all_congruences(A: FiniteAlgebra, max_size: int = DEFAULT_CON_CAP) -> CongruenceLattice:
    """Con(A) as the join closure of the principal congruences.

    Every congruence is the join of the principal congruences it contains,
    so joining each newly found congruence with every distinct principal
    congruence not already below it, until nothing new appears, yields the
    full lattice (R. Freese, Computing congruences efficiently, 2008).
    Guarded by a carrier cap (default 8) and by CON_COUNT_CAP members.
    The lattice is kept on A and returned by later calls that pass the
    carrier cap.
    """
    if A.size > max_size:
        raise BudgetError(
            f"congruence enumeration: carrier has {A.size} elements, "
            f"over the {max_size}-element budget"
        )
    if A._con is not None:
        return A._con
    diagonal = Congruence.diagonal(A)
    items = {diagonal.rep: diagonal}
    principals = []

    def found(c):
        items[c.rep] = c
        if len(items) > CON_COUNT_CAP:
            raise BudgetError(
                f"congruence enumeration: |Con(A)| reached {len(items)}, "
                f"over the {CON_COUNT_CAP}-member budget"
            )

    cols = _translation_columns(A)
    for a in range(A.size):
        for b in range(a + 1, A.size):
            c = generated_congruence(A, [(a, b)], cols)
            if c.rep not in items:
                found(c)
                principals.append((a, b, c))
    frontier = [c for _, _, c in principals]
    while frontier:
        nxt = []
        for c1 in frontier:
            rep = c1.rep
            for a, b, p in principals:
                if rep[a] == rep[b]:
                    continue  # p is below c1
                j = congruence_join(c1, p)
                if j.rep not in items:
                    found(j)
                    nxt.append(j)
        frontier = nxt
    A._con = CongruenceLattice(A, items.values())
    return A._con


# ---------------------------------------------------------------------------
# lifting along quotients and transport along homomorphisms


def quotient_lift(direction: str, Q: Quotient, arg: Congruence) -> Congruence:
    """Move congruences across the natural projection of a quotient Q = A/sigma.

    sigma is the kernel of Q.projection.  "down" sends theta >= sigma to
    theta/sigma on the quotient; "up" sends a congruence of A/sigma to its
    preimage in Con(A).  The two directions are mutually inverse bijections
    between [sigma, total] and Con(A/sigma).  Q is the caller's
    quotient_algebra(A, sigma), so none is built here.
    """
    proj = Q.projection
    if direction == "down":
        if arg.algebra != proj.source:
            raise ValidationError("argument congruence does not belong to this algebra")
        sigma, rep = least_rep(proj.mapping), arg.rep
        if any(rep[x] != rep[r] for x, r in enumerate(sigma)):
            raise ValidationError("down lift needs sigma <= theta")
        # the quotient lists the sigma-blocks by least element, as x ascends
        return Congruence(Q.algebra, least_rep([rep[x] for x, r in enumerate(sigma) if r == x]))
    if direction == "up":
        if arg.algebra != Q.algebra:
            raise ValidationError("argument congruence does not live on the quotient")
        return transport(proj, "pullback", arg)
    raise ValidationError(f"unknown direction {direction!r}")


def transport(f: Homomorphism, direction: str, theta: Congruence) -> Congruence:
    """Pullback along any homomorphism, pushforward along isomorphisms only.

    The pullback of theta is {(a, b) : (f(a), f(b)) in theta}.  Pushforward
    of a congruence along a non-isomorphism need not be transitive or
    compatible, so it is rejected rather than silently repaired.
    """
    if direction == "pullback":
        if theta.algebra != f.target:
            raise ValidationError("pullback argument must live on the target algebra")
        return Congruence(f.source, least_rep([theta.rep[y] for y in f.mapping]))
    if direction == "pushforward":
        if theta.algebra != f.source:
            raise ValidationError("pushforward argument must live on the source algebra")
        if not f.is_bijective():
            raise ValidationError("pushforward requires an isomorphism")
        inv = [0] * f.target.size
        for x, y in enumerate(f.mapping):
            inv[y] = x
        return Congruence(f.target, least_rep([theta.rep[x] for x in inv]))
    raise ValidationError(f"unknown direction {direction!r}")


def relative_congruences(A: FiniteAlgebra, sentences, max_size: int = DEFAULT_CON_CAP,
                         budget: int = DEFAULT_EVAL_BUDGET):
    """Congruences whose quotient satisfies every given sentence."""
    lattice = all_congruences(A, max_size=max_size)
    out = []
    for theta in lattice:
        Q = quotient_algebra(A, theta)
        holds, _ = satisfies(Q.algebra, sentences, budget=budget)
        if holds:
            out.append(theta)
    return out
