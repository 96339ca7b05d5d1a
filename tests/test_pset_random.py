"""Differential tests of PeriodicSet against a pointwise window model.

Random eventually periodic sets, given by an uncanonicalized threshold,
prefix, period and residue set, are combined with every operation and
compared bit by bit with the same operation on their membership over a
window long enough to decide equality: past the largest threshold
involved, one full common period repeats forever.  Pairs that share a
period take the path that skips the lcm, and the results of complement
and the shifts, which keep the least period and skip its search, are
compared with the full canonicalisation of raw fields spelled out from
the readable ones, as are the binary operations on pairs with a period-1
side, which skip the period search.  Hypothesis runs derandomized with a
bounded number of examples, so every run tries the same sets.
"""

import math

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cbswb.pset import PeriodicSet, _of

from oracles import raw_members

PSET_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=100)

MAX_THRESHOLD = 10
MAX_PERIOD = 12
MAX_SHIFT = 10
# largest threshold after a shift, plus the largest lcm of two periods
WINDOW = MAX_THRESHOLD + MAX_SHIFT + 2 * max(
    math.lcm(a, b) for a in range(1, MAX_PERIOD + 1) for b in range(1, MAX_PERIOD + 1))


def raw_case(threshold, prefix, period, residues):
    """A set together with its membership over the window."""
    s = PeriodicSet(threshold, prefix, period, residues)
    return s, raw_members(threshold, prefix, period, residues, WINDOW)


@st.composite
def raw_sets(draw):
    """A raw_case of drawn fields."""
    threshold = draw(st.integers(0, MAX_THRESHOLD))
    prefix = draw(st.lists(st.booleans(), min_size=threshold, max_size=threshold))
    period = draw(st.integers(1, MAX_PERIOD))
    residues = draw(st.frozensets(st.integers(0, period - 1)))
    return raw_case(threshold, prefix, period, residues)


@st.composite
def same_period_pairs(draw):
    """Two sets of one drawn canonical period, each with its membership over the window."""
    period = draw(st.integers(1, MAX_PERIOD))
    cases = []
    for _ in range(2):
        threshold = draw(st.integers(0, MAX_THRESHOLD))
        prefix = draw(st.lists(st.booleans(), min_size=threshold, max_size=threshold))
        bits = draw(st.integers(0, (1 << period) - 1))
        residues = {r for r in range(period) if bits >> r & 1}
        s = PeriodicSet(threshold, prefix, period, residues)
        assume(s.period == period)
        cases.append((s, raw_members(threshold, prefix, period, residues, WINDOW)))
    return cases


def window(s):
    """Membership over the window, decided from the readable fields."""
    return raw_members(s.threshold, s.prefix, s.period, s.residues, WINDOW)


def assert_canonical(s):
    """No proper divisor of the period works, and no prefix bit is redundant."""
    p, residues = s.period, s.residues
    for d in range(1, p):
        if p % d == 0:
            assert any((r in residues) != ((r + d) % p in residues) for r in range(p)), (s, d)
    if s.threshold:
        assert s.prefix[-1] != ((s.threshold - 1) % p in residues), s


def reference_render(s):
    """The text form spelled out from the readable fields."""
    bits = "".join("1" if b else "0" for b in s.prefix)
    inner = ",".join(str(r) for r in sorted(s.residues))
    return f"prefix={bits};period={s.period};residues={{{inner}}}"


@PSET_SETTINGS
@given(raw_sets(), raw_sets())
def test_boolean_operations_match_window_model(case_a, case_b):
    (a, ma), (b, mb) = case_a, case_b
    everything = set(range(WINDOW))
    results = [
        (a.union(b), ma | mb),
        (a.intersect(b), ma & mb),
        (a.difference(b), ma - mb),
        (a.complement(), everything - ma),
    ]
    for s, want in results:
        assert window(s) == want
        assert_canonical(s)
    assert a.subset(b) == (ma <= mb)
    assert (a == b) == (ma == mb)
    if ma == mb:
        assert hash(a) == hash(b)


@PSET_SETTINGS
@given(raw_sets(), st.integers(0, MAX_SHIFT))
def test_shifts_match_window_model(case, k):
    s, members = case
    assert_canonical(s)
    up, down = s.shift(k), s.backshift(k)
    assert window(up) == {x + k for x in members if x + k < WINDOW}
    assert {x for x in range(WINDOW - k) if x in down} == {x - k for x in members if x >= k}
    assert_canonical(up)
    assert_canonical(down)


@PSET_SETTINGS
@given(raw_sets(), st.integers(0, MAX_SHIFT))
def test_shift_fill_matches_shift_and_block(case, k):
    s, members = case
    got = s.shift_fill(k)
    assert got == s.shift(k).union(PeriodicSet.block(0, k))
    assert window(got) == set(range(k)) | {x + k for x in members if x + k < WINDOW}
    assert_canonical(got)


@PSET_SETTINGS
@given(raw_sets())
# period-1 tails, which render writes without reading the residue mask
@example(raw_case(0, (), 1, ()))  # the empty set
@example(raw_case(0, (), 1, (0,)))  # the naturals
@example(raw_case(5, (1, 0, 1, 1, 0), 1, ()))  # {0, 2, 3}
@example(raw_case(4, (0, 1, 0, 1), 1, (0,)))  # all but 0 and 2
@example(raw_case(3, (0, 0, 1), 4, (0, 1, 2, 3)))  # a full tail of period 4 is period 1
def test_render_parse_round_trip(case):
    s, members = case
    text = s.render()
    assert text == reference_render(s)
    back = PeriodicSet.parse(text)
    assert back == s and window(back) == members
    assert {x for x in range(WINDOW) if x in s} == members


def mask(positions):
    """Bitmask with the given positions set."""
    return sum(1 << x for x in positions)


@PSET_SETTINGS
@given(raw_sets(), st.integers(0, MAX_SHIFT))
def test_unary_operations_keep_the_least_period(case, k):
    # each result must equal the full canonicalisation, period search included,
    # of raw fields spelled out here from the readable ones
    s, _ = case
    t, p, residues = s.threshold, s.period, s.residues
    prefix = {x for x in range(t) if s.prefix[x]}
    raw = {
        "complement": (t, set(range(t)) - prefix, set(range(p)) - residues),
        "shift": (t + k, {x + k for x in prefix}, {(r + k) % p for r in residues}),
        "shift_fill": (t + k, set(range(k)) | {x + k for x in prefix},
                       {(r + k) % p for r in residues}),
        "backshift": (max(t - k, 0), {x - k for x in prefix if x >= k},
                      {(r - k) % p for r in residues}),
    }
    got = {
        "complement": s.complement(),
        "shift": s.shift(k),
        "shift_fill": s.shift_fill(k),
        "backshift": s.backshift(k),
    }
    for name, (threshold, members, rs) in raw.items():
        want = _of(threshold, mask(members), p, mask(rs))
        assert got[name] == want, name
        assert got[name].period == p, name


@PSET_SETTINGS
@given(same_period_pairs())
def test_equal_period_operations_match_window_model(pair):
    (a, ma), (b, mb) = pair
    for s, want in ((a.union(b), ma | mb), (a.intersect(b), ma & mb),
                    (a.difference(b), ma - mb), (b.difference(a), mb - ma)):
        assert window(s) == want
        assert_canonical(s)
    assert a.subset(b) == (ma <= mb)
    assert b.subset(a) == (mb <= ma)


@st.composite
def period_one_sets(draw):
    """A set of period 1, a finite or a cofinite one, with its membership over the window."""
    threshold = draw(st.integers(0, MAX_THRESHOLD))
    prefix = draw(st.lists(st.booleans(), min_size=threshold, max_size=threshold))
    residues = draw(st.sampled_from([(), (0,)]))
    return PeriodicSet(threshold, prefix, 1, residues), raw_members(
        threshold, prefix, 1, residues, WINDOW)


def raw_fields(s, n, period):
    """The window below n and the residue mask mod period, a multiple of s.period,
    spelled out from the readable fields."""
    below = {x for x in range(n)
             if (s.prefix[x] if x < s.threshold else x % s.period in s.residues)}
    return mask(below), mask(r for r in range(period) if r % s.period in s.residues)


@PSET_SETTINGS
@given(st.one_of(st.tuples(period_one_sets(), raw_sets()),
                 st.tuples(raw_sets(), period_one_sets()),
                 st.tuples(period_one_sets(), period_one_sets())))
def test_binary_operations_with_a_period_one_side_match_full_canonicalisation(pair):
    # each result must equal the full canonicalisation, period search included,
    # of raw fields over the larger threshold and the lcm of the periods
    (a, ma), (b, mb) = pair
    n, p = max(a.threshold, b.threshold), math.lcm(a.period, b.period)
    (wa, ra), (wb, rb) = raw_fields(a, n, p), raw_fields(b, n, p)
    want = {
        "union": _of(n, wa | wb, p, ra | rb),
        "intersect": _of(n, wa & wb, p, ra & rb),
        "difference": _of(n, wa & ~wb, p, ra & ~rb),
    }
    for name, expected in want.items():
        assert getattr(a, name)(b) == expected, name
    assert a.subset(b) == want["difference"].is_empty() == (ma <= mb)
