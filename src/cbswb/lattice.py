"""Finite bounded lattices presented by their order.

The one lattice core of the package: Con(A) is a FiniteLattice, and the
centre and Boolean-sublattice checks of every congruence operator run here
on table lookups.  An element z is neutral when every triple {a, b, z}
generates a distributive sublattice, which for finite lattices reduces to
the six permuted median identities below.  The centre is the set of neutral
complemented elements.  The laws are read off the cover relation when first
asked: a finite lattice is modular iff it is upper and lower semimodular
(G. Graetzer, General Lattice Theory, 2nd ed., ch. IV), and distributive iff
every join-irreducible is join-prime (B. A. Davey and H. A. Priestley,
Introduction to Lattices and Order, 2002, ch. 5).
"""

from __future__ import annotations

import itertools
from functools import cached_property


def bitsets(rows):
    """Each row of a matrix of bools as a bitset: bit j is row[j]."""
    digits = bytes.maketrans(b"\0\1", b"01")
    return [int(bytes(row[::-1]).translate(digits), 2) for row in rows]


def upper_covers(up):
    """The covers of each element, ascending, from the up-set bitsets of an
    order indexed along a linear extension: the least index above x covers
    x, nothing above a cover covers x, and the least index left is the next."""
    out = []
    for x, u in enumerate(up):
        above, covers = u ^ (1 << x), []
        while above:
            y = (above & -above).bit_length() - 1
            covers.append(y)
            above &= ~up[y]
        out.append(tuple(covers))
    return tuple(out)


class FiniteLattice:
    """Bounded lattice on 0..size-1 given by its order matrix.

    The indices must follow a linear extension of the order, as Con(A)'s
    canonical order does: the bounds are the first and last index, the meet
    of i and j is the highest index in down[i] & down[j] and the join the
    lowest in up[i] & up[j].  The order is taken as given: every caller
    builds it from a lattice it has already computed, so nothing here
    re-checks it.
    """

    def __init__(self, leq):
        self.size = m = len(leq)
        self.leq = leq
        self.up, self.down = up, down = bitsets(leq), bitsets(zip(*leq))
        self.meet_table = tuple(tuple((d & e).bit_length() - 1 for e in down) for d in down)
        high = bitsets(row[::-1] for row in leq)  # up-sets, the lowest index as the top bit
        self.join_table = tuple(tuple(m - (h & k).bit_length() for k in high) for h in high)
        self.bottom, self.top = 0, m - 1

    def meet(self, i, j):
        return self.meet_table[i][j]

    def join(self, i, j):
        return self.join_table[i][j]

    @cached_property
    def covers(self):
        """The upper covers of each element, ascending."""
        return upper_covers(self.up)

    @cached_property
    def modular(self) -> bool:
        """Upper and lower semimodular: any two upper covers x and y of one
        element are both covered by x v y, and dually."""
        lower = [[] for _ in self.covers]
        for x, ys in enumerate(self.covers):
            for y in ys:
                lower[y].append(x)
        return all(J[x][y] in covers[x] and J[x][y] in covers[y]
                   for covers, J in ((self.covers, self.join_table), (lower, self.meet_table))
                   for ys in covers for x, y in itertools.combinations(ys, 2))

    @cached_property
    def distributive(self) -> bool:
        """Modular, and every join-irreducible j is join-prime: when the
        elements below j have a greatest one, so do those not above j.  On a
        linear extension that element, if any, is the highest index."""
        full = (1 << self.size) - 1

        def greatest(s):
            return s and self.down[s.bit_length() - 1] == s

        return self.modular and all(greatest(full ^ self.up[j])
                                    for j, d in enumerate(self.down) if greatest(d ^ (1 << j)))

    def complements(self, x):
        M, J = self.meet_table[x], self.join_table[x]
        return [y for y in range(self.size) if M[y] == self.bottom and J[y] == self.top]

    def neutrality_failure(self, z):
        """First failing median identity for z, or None when z is neutral.

        Checks (x,y,w)D: (x v y) ^ w = (x ^ w) v (y ^ w) and its dual for
        every arrangement (x, y, w) of {a, b, z}, a then b ascending.  Bounds
        and all elements of a distributive lattice are neutral.  A triple
        holding a bound (first or last index) generates a distributive
        sublattice, and swapping a and b, or x and y, keeps the identities, so
        row a first fails, if at all, at some b > a; only a pair failing one of
        its six distinct identities is walked through the arrangements."""
        if z == self.bottom or z == self.top or self.distributive:
            return None
        M, J = self.meet_table, self.join_table
        Mz, Jz = M[z], J[z]
        for a in range(1, self.size - 1):
            Ma, Ja = M[a], J[a]
            Jaz, Maz = J[Ma[z]], M[Ja[z]]  # rows of (a ^ z) v _ and (a v z) ^ _
            for b in range(a + 1, self.size - 1):
                if (Mz[Ja[b]] == Jaz[Mz[b]] and Maz[b] == J[Ma[b]][Mz[b]]
                        and Ma[Jz[b]] == Jaz[Ma[b]] and Jz[Ma[b]] == Maz[Jz[b]]
                        and Jaz[b] == M[Ja[b]][Jz[b]] and Ja[Mz[b]] == Maz[Ja[b]]):
                    continue
                for x, y, w in itertools.permutations((a, b, z)):
                    if M[J[x][y]][w] != J[M[x][w]][M[y][w]]:
                        return {"triple": [x, y, w], "identity": "D"}
                    if J[M[x][y]][w] != M[J[x][w]][J[y][w]]:
                        return {"triple": [x, y, w], "identity": "D*"}
        return None

    def boolean_failure(self, members):
        """None when members form a Boolean sublattice, else (reason, indices).

        The checks run in a fixed order and the first failure is returned:
        closure under meet then join per pair, ("meet_not_closed" or
        "join_not_closed", (i, j)); then exactly one complement inside the
        members, ("complement_not_unique", (i, complements)), the
        complements in ascending order, as every caller lists the members
        in ascending order.  Members passing both contain the bounds and
        form a finite uniquely complemented lattice, which is Boolean
        (Birkhoff-Ward), so distributivity needs no check of its own.
        """
        inside = set(members)
        for i in members:
            for j in members:
                if self.meet(i, j) not in inside:
                    return "meet_not_closed", (i, j)
                if self.join(i, j) not in inside:
                    return "join_not_closed", (i, j)
        for i in members:
            comps = [j for j in self.complements(i) if j in inside]
            if len(comps) != 1:
                return "complement_not_unique", (i, comps)
        return None
