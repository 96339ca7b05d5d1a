"""Differential tests of PeriodicSet against a pointwise window model.

Random eventually periodic sets, given by an uncanonicalized threshold,
prefix, period and residue set, are combined with every operation and
compared bit by bit with the same operation on their membership over a
window long enough to decide equality: past the largest threshold
involved, one full common period repeats forever.  Hypothesis runs
derandomized with a bounded number of examples, so every run tries the
same sets.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from cbswb.pset import PeriodicSet

from oracles import raw_members

PSET_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=100)

MAX_THRESHOLD = 10
MAX_PERIOD = 12
MAX_SHIFT = 10
# largest threshold after a shift, plus the largest lcm of two periods
WINDOW = MAX_THRESHOLD + MAX_SHIFT + 2 * max(
    math.lcm(a, b) for a in range(1, MAX_PERIOD + 1) for b in range(1, MAX_PERIOD + 1))


@st.composite
def raw_sets(draw):
    """A set together with its membership over the window."""
    threshold = draw(st.integers(0, MAX_THRESHOLD))
    prefix = draw(st.lists(st.booleans(), min_size=threshold, max_size=threshold))
    period = draw(st.integers(1, MAX_PERIOD))
    residues = draw(st.frozensets(st.integers(0, period - 1)))
    s = PeriodicSet(threshold, prefix, period, residues)
    return s, raw_members(threshold, prefix, period, residues, WINDOW)


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
def test_render_parse_round_trip(case):
    s, members = case
    text = s.render()
    assert text == reference_render(s)
    back = PeriodicSet.parse(text)
    assert back == s and window(back) == members
    assert {x for x in range(WINDOW) if x in s} == members
