"""Eventually periodic subsets of the naturals with Boolean set calculus.

A set is stored as two bitmasks: `pbits` holds membership below a
threshold, and `rbits` the residues modulo a period that decide membership
above it.  The canonical form uses the smallest working period and then
the smallest threshold, so equality is plain field comparison.  The family
is closed under union, intersection, complement and coordinate shifts,
which is everything the symbolic factor-congruence layer needs; each of
them is a few big-integer bit operations.  Thresholds and periods are
capped at SIZE_CAP bits, checked before any mask of that size is built.

Canonicalising is two steps: `_least_period` finds the smallest period of
the residue mask, and `_trim` then cuts the prefix to the shortest one
that still disagrees with the periodic tail.  The unary operations,
complement and the shifts, run `_trim` alone: complementing or rotating a
residue mask maps its translates to the translates of the result, so a
mask whose least period is p keeps p.  Union, intersection and difference
can shorten the period (the odd and the even numbers make every number),
so they run both steps, except at period 1, whose one divisor leaves no
period to search.  A period-1 tail holds every position or none, so
`_trim` tiles it inline as one mask, with no call.  The binary operations
read the window of the set with the lower threshold inline, as
`bits_below` would give it.  `render` writes a period-1 tail, which most
sets of a symbolic run have, as `{}` or `{0}` without reading its mask.
"""

import math
import re
from functools import lru_cache

from .errors import FormatError, ValidationError, over_budget

SIZE_CAP = 1 << 20


def _budget(stage: str, threshold: int, period: int):
    if threshold > SIZE_CAP or period > SIZE_CAP:
        what, value = ("threshold", threshold) if threshold > SIZE_CAP else ("period", period)
        raise over_budget(f"periodic set {stage}", what, value, SIZE_CAP, "bit")


@lru_cache(maxsize=256)
def _divisors(n: int):
    """Divisors of n in ascending order, by trial division up to sqrt(n)."""
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return tuple(small + [n // d for d in reversed(small) if d * d != n])


def _mask(n: int) -> int:
    return (1 << n) - 1


def _tile(bits: int, p: int, n: int) -> int:
    """The residue mask `bits` of period p repeated over positions 0..n-1."""
    if not bits:
        return 0
    if p == 1:  # a period-1 tail holds every position
        return (1 << n) - 1
    # doubling the tiled width keeps this linear in n; bits < 2^p, so no overlaps
    while p < n:
        bits |= bits << p
        p <<= 1
    return bits & (1 << n) - 1


def _rotate(bits: int, p: int, k: int) -> int:
    """Residue mask of {(r + k) mod p : r in bits}."""
    k %= p
    return (bits << k | bits >> (p - k)) & _mask(p)


def _bits(positions, n: int) -> int:
    """Bitmask with the given positions, all below n, set."""
    digits = bytearray(b"0" * n)
    for x in positions:
        digits[n - 1 - x] = 49  # "1"
    return int(digits, 2) if n else 0


def _least_period(p: int, rbits: int):
    """The least period of the residue mask rbits < 2^p, with its mask."""
    for d in _divisors(p):
        low = rbits & (1 << d) - 1
        if _tile(low, d, p) == rbits:
            return d, low


def _trim(t: int, pbits: int, p: int, rbits: int) -> "PeriodicSet":
    """Set from pbits < 2^t below t and rbits of least period p, its prefix cut short.

    The threshold drops to just past the last position where the prefix
    disagrees with the periodic tail.
    """
    # a period-1 tail holds every position or none
    tail = ((1 << t) - 1 if rbits else 0) if p == 1 else _tile(rbits, p, t)
    t = (pbits ^ tail).bit_length()
    s = object.__new__(PeriodicSet)
    s.threshold, s.pbits, s.period, s.rbits = t, pbits & (1 << t) - 1, p, rbits
    return s


def _of(t: int, pbits: int, p: int, rbits: int) -> "PeriodicSet":
    """Canonical set from pbits < 2^t below threshold t and rbits < 2^p mod p."""
    if p == 1:  # the only divisor of 1 is 1
        return _trim(t, pbits, 1, rbits)
    return _trim(t, pbits, *_least_period(p, rbits))


class PeriodicSet:
    """Canonical eventually periodic subset of the naturals."""

    __slots__ = ("threshold", "pbits", "period", "rbits")

    def __init__(self, threshold: int, prefix, period: int, residues):
        prefix = tuple(bool(b) for b in prefix)
        residues = frozenset(residues)
        if threshold < 0 or len(prefix) != threshold:
            raise ValidationError("prefix length must equal the threshold")
        if period < 1:
            raise ValidationError("period must be positive")
        if any(not (0 <= r < period) for r in residues):
            raise ValidationError("residues must lie below the period")
        _budget("construction", threshold, period)
        canon = _of(threshold, _bits((x for x, b in enumerate(prefix) if b), threshold),
                    period, _bits(residues, period))
        self.threshold, self.pbits = canon.threshold, canon.pbits
        self.period, self.rbits = canon.period, canon.rbits

    @property
    def prefix(self):
        """Membership bits below the threshold, as a tuple of booleans."""
        return tuple(bool(self.pbits >> x & 1) for x in range(self.threshold))

    @property
    def residues(self):
        """Residues modulo the period of the members at or above the threshold."""
        return frozenset(r for r in range(self.period) if self.rbits >> r & 1)

    # -- factories ---------------------------------------------------------

    @staticmethod
    def empty() -> "PeriodicSet":
        return _of(0, 0, 1, 0)

    @staticmethod
    def naturals() -> "PeriodicSet":
        return _of(0, 0, 1, 1)

    @staticmethod
    def from_finite(items) -> "PeriodicSet":
        items = set(items)
        if any(x < 0 for x in items):
            raise ValidationError("members must be nonnegative")
        n = max(items) + 1 if items else 0
        _budget("construction", n, 1)
        return _of(n, _bits(items, n), 1, 0)

    @staticmethod
    def block(lo: int, hi: int) -> "PeriodicSet":
        """The interval [lo, hi)."""
        if lo >= hi:
            return PeriodicSet.empty()
        if lo < 0:
            raise ValidationError("members must be nonnegative")
        _budget("construction", hi, 1)
        return _of(hi, _mask(hi) ^ _mask(lo), 1, 0)

    # -- membership --------------------------------------------------------

    def __contains__(self, x: int) -> bool:
        if x < 0:
            return False
        if x < self.threshold:
            return bool(self.pbits >> x & 1)
        return bool(self.rbits >> x % self.period & 1)

    def is_empty(self) -> bool:
        return not (self.pbits or self.rbits)

    def bits_below(self, n: int) -> int:
        """Membership of 0..n-1 as one mask: bit x is set when x is a member."""
        t = self.threshold
        if n <= t:
            return self.pbits & (1 << n) - 1
        return self.pbits | _tile(self.rbits, self.period, n) >> t << t

    # -- Boolean calculus ----------------------------------------------------

    def _aligned(self, other: "PeriodicSet", stage: str):
        """Both sets as windows below the larger threshold and masks mod the lcm."""
        t, u = self.threshold, other.threshold
        p, q = self.period, other.period
        a, b, ra, rb = self.pbits, other.pbits, self.rbits, other.rbits
        # the set with the lower threshold fills the window up from its tail,
        # as bits_below does
        if t < u:
            n, a = u, a | _tile(ra, p, u) >> t << t
        elif u < t:
            n, b = t, b | _tile(rb, q, t) >> u << u
        else:
            n = t
        if p == q:  # both sets are within budget, so the pair is too
            return n, p, a, b, ra, rb
        m = math.lcm(p, q)
        _budget(stage, n, m)
        return n, m, a, b, _tile(ra, p, m), _tile(rb, q, m)

    def union(self, other: "PeriodicSet") -> "PeriodicSet":
        n, p, a, b, ra, rb = self._aligned(other, "union")
        return _of(n, a | b, p, ra | rb)

    def intersect(self, other: "PeriodicSet") -> "PeriodicSet":
        n, p, a, b, ra, rb = self._aligned(other, "intersection")
        return _of(n, a & b, p, ra & rb)

    def difference(self, other: "PeriodicSet") -> "PeriodicSet":
        n, p, a, b, ra, rb = self._aligned(other, "difference")
        return _of(n, a & ~b, p, ra & ~rb)

    def complement(self) -> "PeriodicSet":
        t, p = self.threshold, self.period
        return _trim(t, self.pbits ^ _mask(t), p, self.rbits ^ _mask(p))

    def shift(self, k: int) -> "PeriodicSet":
        """{x + k : x in self}."""
        if k < 0:
            raise ValidationError("shift amount must be nonnegative")
        _budget("shift", self.threshold + k, self.period)
        return _trim(self.threshold + k, self.pbits << k, self.period,
                     _rotate(self.rbits, self.period, k))

    def shift_fill(self, k: int) -> "PeriodicSet":
        """{x + k : x in self} with 0..k-1 added: shift(k) | block(0, k) in one step."""
        if k < 0:
            raise ValidationError("shift amount must be nonnegative")
        _budget("shift", self.threshold + k, self.period)
        return _trim(self.threshold + k, self.pbits << k | _mask(k), self.period,
                     _rotate(self.rbits, self.period, k))

    def backshift(self, k: int) -> "PeriodicSet":
        """{x - k : x in self, x >= k}; the loose inverse of shift."""
        if k < 0:
            raise ValidationError("shift amount must be nonnegative")
        return _trim(max(self.threshold - k, 0), self.pbits >> k, self.period,
                     _rotate(self.rbits, self.period, -k))

    def subset(self, other: "PeriodicSet") -> bool:
        _, _, a, b, ra, rb = self._aligned(other, "subset test")
        return not (a & ~b or ra & ~rb)

    def __eq__(self, other):
        if not isinstance(other, PeriodicSet):
            return NotImplemented
        return (
            self.threshold == other.threshold
            and self.pbits == other.pbits
            and self.period == other.period
            and self.rbits == other.rbits
        )

    def __hash__(self):
        return hash((self.threshold, self.pbits, self.period, self.rbits))

    # -- text form -----------------------------------------------------------

    def render(self) -> str:
        t, p = self.threshold, self.period
        bits = format(self.pbits, "b").zfill(t)[::-1] if t else ""
        if p == 1:  # a period-1 tail holds every position or none
            inner = "0" if self.rbits else ""
        else:
            inner = ",".join([str(r) for r, c in enumerate(reversed(format(self.rbits, "b")))
                              if c == "1"])
        return f"prefix={bits};period={p};residues={{{inner}}}"

    @staticmethod
    def parse(text: str) -> "PeriodicSet":
        text = text.strip()
        finite = re.fullmatch(r"\{([0-9,\s]*)\}", text)
        if finite:
            return PeriodicSet.from_finite(_naturals(finite.group(1)))
        m = re.fullmatch(
            r"prefix=([01]*);period=([0-9]+);residues=\{([0-9,\s]*)\}", text
        )
        if not m:
            raise FormatError(f"not a periodic set literal: {text!r}")
        bits = [c == "1" for c in m.group(1)]
        period, residues = _naturals(m.group(2))[0], _naturals(m.group(3))
        if period < 1:
            raise FormatError("period must be positive")
        if any(not (0 <= r < period) for r in residues):
            raise FormatError("residues must lie below the period")
        return PeriodicSet(len(bits), bits, period, residues)

    def __repr__(self):
        return f"PeriodicSet({self.render()!r})"


def _naturals(text: str) -> list:
    """The comma-separated naturals of a set literal, blank entries skipped."""
    try:
        return [int(t) for t in text.split(",") if t.strip()]
    except ValueError:  # digits split by blanks, or too many digits
        raise FormatError(f"not a list of naturals: {text!r}")

