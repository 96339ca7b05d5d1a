"""Finite bounded lattices presented by their order, meet and join tables.

The one lattice core of the package: Con(A) is a FiniteLattice, and the
centre and Boolean-sublattice checks of every congruence operator run here
on table lookups.  An element z is neutral when every triple {a, b, z}
generates a distributive sublattice, which for finite lattices reduces to
the six permuted median identities below.  The centre is the set of neutral
complemented elements.
"""

from __future__ import annotations

import itertools


class FiniteLattice:
    """Bounded lattice on 0..size-1 given by its order and operation tables.

    The tables are taken as given: every caller builds them from a lattice
    it has already computed, so nothing here re-derives or re-checks them.
    """

    def __init__(self, leq, meet_table, join_table):
        self.size = len(leq)
        self.leq = leq
        self.meet_table = meet_table
        self.join_table = join_table
        self.bottom = next(i for i, row in enumerate(leq) if all(row))
        self.top = next(i for i in range(self.size) if all(row[i] for row in leq))

    def meet(self, i, j):
        return self.meet_table[i][j]

    def join(self, i, j):
        return self.join_table[i][j]

    def is_modular(self) -> bool:
        M, J, m = self.meet_table, self.join_table, self.size
        for x in range(m):
            for z in range(m):
                if not self.leq[x][z]:
                    continue
                for y in range(m):
                    if J[x][M[y][z]] != M[J[x][y]][z]:
                        return False
        return True

    def is_distributive(self) -> bool:
        return self._distributivity_failure(range(self.size)) is None

    def _distributivity_failure(self, members):
        M, J = self.meet_table, self.join_table
        for x in members:
            for y in members:
                for z in members:
                    if M[x][J[y][z]] != J[M[x][y]][M[x][z]]:
                        return (x, y, z)
        return None

    def complements(self, x):
        return [
            y
            for y in range(self.size)
            if self.meet(x, y) == self.bottom and self.join(x, y) == self.top
        ]

    def neutrality_failure(self, z):
        """First failing median identity for z, or None when z is neutral.

        Checks (x,y,w)D: (x v y) ^ w = (x ^ w) v (y ^ w) and its dual for
        every arrangement of the triple {a, b, z} that places each element
        in each slot.
        """
        M, J = self.meet_table, self.join_table
        for a in range(self.size):
            for b in range(self.size):
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
        in ascending order.  Members
        passing both contain the bounds and form a finite uniquely
        complemented lattice, which is Boolean (Birkhoff-Ward), so
        distributivity needs no check of its own.
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
