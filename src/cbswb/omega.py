"""Symbolic factor congruences of a countable direct power.

For a directly indecomposable base A the factor congruences of the power
indexed by the naturals correspond to coordinate sets; the eventually
periodic ones are representable here.  theta_S collapses the coordinates
in S, so the empty set is the diagonal, the full set is total, meet is
intersection and join is union.  The shift isomorphism by k coordinates
makes the CBS machinery nontrivial: the module runs the full sequence
recursion on sets, computes the genuine countable infimum with a
certified stabilization bound, validates runs against finite truncations
of the power, and works the pseudo-simple quasi-cyclic group example.
"""

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Optional

from .algebra import (
    FiniteAlgebra,
    Homomorphism,
    Operation,
    direct_product,
    power_algebra,
    quotient_algebra,
)
from .cbs import SequenceLattice, chi_pair, sequence_shape, sequence_tail, sequence_violations
from .congruence import Congruence, compatibility_witness, congruence_join
from .errors import BudgetError, ValidationError
from .pset import PeriodicSet
from .structure import check_factor_pair, decomposition_witness, factor_congruences

MATERIALIZE_CAP = 512
MAX_TRUNCATION = 64
MAX_INDICES = 1024
QC_SIZE_CAP = 1024


# ---------------------------------------------------------------------------
# symbolic congruences and the shift


@dataclass(frozen=True)
class OmegaCongruence:
    """theta_S on the countable power of the base: x ~ y iff they agree off S."""

    base: FiniteAlgebra
    coords: PeriodicSet

    def restrict_rep(self, m: int):
        """Least-representative array of the restriction to the first m coordinates."""
        n = self.base.size
        weights = [n ** (m - 1 - i) for i in range(m)]
        bits = self.coords.bits_below(m)
        collapse = [i for i in range(m) if bits >> i & 1]
        rep = []
        for x in range(n ** m):
            r = x
            for i in collapse:
                r -= ((x // weights[i]) % n) * weights[i]
            rep.append(r)
        return rep

    def restrict(self, Bm: FiniteAlgebra, m: int) -> Congruence:
        return Congruence(Bm, self.restrict_rep(m))


@dataclass(frozen=True)
class ShiftIso:
    """Isomorphism of the power onto its quotient by the first k coordinates."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValidationError("shift amount must be at least 1")

    def theta(self) -> PeriodicSet:
        return PeriodicSet.block(0, self.k)

    def fhat(self, S: PeriodicSet) -> PeriodicSet:
        """S shifted by k, with the k coordinates of theta collapsed as well."""
        return S.shift_fill(self.k)

    def fhat_inv(self, S: PeriodicSet) -> PeriodicSet:
        return S.backshift(self.k)


# ---------------------------------------------------------------------------
# countable infima of affine families


@dataclass(frozen=True)
class AffineFamily:
    """V_1 given; V_{n+1} = shift(V_n, k) combined with a fixed set."""

    v1: PeriodicSet
    k: int
    mode: str  # union | intersect
    fixed: PeriodicSet

    def __post_init__(self):
        if self.k < 1:
            raise ValidationError("shift amount must be at least 1")
        if self.mode not in ("union", "intersect"):
            raise ValidationError(f"unknown recurrence mode {self.mode!r}")

    def step(self, v: PeriodicSet) -> PeriodicSet:
        shifted = v.shift(self.k)
        return shifted.union(self.fixed) if self.mode == "union" else shifted.intersect(self.fixed)

    def terms(self, count: int):
        """V_1 .. V_count."""
        out = [self.v1]
        for _ in range(count - 1):
            out.append(self.step(out[-1]))
        return out


def _stabilization_bound(x: int, k: int) -> int:
    return (x + 1 + k - 1) // k + 1


def countable_infimum(family: AffineFamily, certificate: bool = False):
    """Intersection of the whole family, decided coordinatewise.

    Membership of x only depends on terms up to the stabilization bound;
    the bound is certified by re-evaluating up to twice its value, and the
    detected periodic closed form is re-checked against every term within
    the certification range.  Any discrepancy raises instead of returning
    a wrong set.
    """
    k = family.k
    base_period = math.lcm(family.v1.period, family.fixed.period)
    pattern = base_period * k
    n0 = max(family.v1.threshold, family.fixed.threshold, k)
    # the limit settles into its periodic pattern one block after the
    # transients clear, so the candidate threshold leaves that much room
    settle = n0 + 2 * pattern
    window = settle + 2 * pattern
    n_max = 2 * _stabilization_bound(window - 1, k)
    terms = family.terms(n_max)

    # coordinate x reads the terms V_1 .. V_min(2b, n_max), b its stabilization
    # bound, and they must agree from V_b on; b is n exactly for the k
    # coordinates in [(n-2)k, (n-1)k), so term n is read by the x at or
    # above (ceil(n/2)-2)k and is in the stable tail of the x below (n-1)k
    def span(lo, hi):
        """Mask of the coordinates in [lo, hi) that lie in the window."""
        lo, hi = max(lo, 0), min(hi, window)
        return (1 << hi) - (1 << lo) if lo < hi else 0

    full = span(0, window)
    bits = full  # coordinates in every term they read
    at_bound = unstable = 0  # bits of V_b, where b is known; tail disagreements
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

    if certificate:
        return candidate, {
            "window": window,
            "terms_checked": n_max,
            "stabilization_bound": "ceil((x+1)/k)+1",
            "pattern_period": pattern,
        }
    return candidate


# ---------------------------------------------------------------------------
# the symbolic CBS run


@dataclass
class OmegaRun:
    """Symbolic sequence state over the countable power of the base."""

    base: FiniteAlgebra
    k: int
    theta: PeriodicSet
    zeta: PeriodicSet
    sigmas: list = field(default_factory=list)
    thetas: list = field(default_factory=list)  # quotient-indexed; thetas[0] is None
    neg_odd: dict = field(default_factory=dict)
    ds: list = field(default_factory=list)
    sigma_zeta: Optional[PeriodicSet] = None
    infimum_certificate: dict = field(default_factory=dict)
    chi: Optional[PeriodicSet] = None
    neg_chi: Optional[PeriodicSet] = None
    neg_sigma_zeta: Optional[PeriodicSet] = None
    equations: list = field(default_factory=list)
    conclusion: dict = field(default_factory=dict)

    def iso(self) -> ShiftIso:
        return ShiftIso(self.k)

    def to_report(self) -> dict:
        texts = {}  # thetas[n] is sigmas[n-1], so many sets recur

        def render(s: PeriodicSet) -> str:
            text = texts.get(s)
            if text is None:
                text = texts[s] = s.render()
            return text

        return {
            "base": self.base.name,
            "k": self.k,
            "representation": "eventually periodic coordinate sets (the representable fragment)",
            "theta": render(self.theta),
            "zeta": render(self.zeta),
            "sigmas": [render(s) for s in self.sigmas],
            "thetas": [None if t is None else render(t) for t in self.thetas],
            "neg_odd": {str(i): render(s) for i, s in sorted(self.neg_odd.items())},
            "ds": [render(d) for d in self.ds],
            "sigma_zeta": render(self.sigma_zeta),
            "infimum_certificate": dict(self.infimum_certificate),
            "chi": render(self.chi),
            "neg_chi": render(self.neg_chi),
            "neg_sigma_zeta": render(self.neg_sigma_zeta),
            "equations": [dict(e) for e in self.equations],
            "conclusion": dict(self.conclusion),
        }


def _require_indecomposable(A: FiniteAlgebra):
    if A.size < 2:
        raise ValidationError("base algebra must have at least two elements")
    analysis = factor_congruences(A)
    if len(analysis.fc) != 2:
        raise ValidationError("base algebra decomposable")


def omega_cbs_run(A: FiniteAlgebra, k: int, zeta: PeriodicSet, indices: int = 10) -> OmegaRun:
    """Full symbolic CBS-sequence for the shift by k with seed zeta.

    Produces the sigma and d tables, the countable infimum sigma_zeta,
    the complement pair chi / neg_chi and the isomorphism-chain
    certificate expressed as coordinate maps.
    """
    if indices > MAX_INDICES:
        raise BudgetError(f"omega run: indices reached {indices}, over the {MAX_INDICES}-index budget")
    _require_indecomposable(A)
    iso = ShiftIso(k)
    theta = iso.theta()
    if not zeta.subset(theta):
        raise ValidationError("zeta must collapse only coordinates below k")

    sigmas = [PeriodicSet.empty(), zeta]
    while len(sigmas) <= indices:
        sigmas.append(iso.fhat(sigmas[-2]))
    thetas = [None] + [sigmas[n - 1] for n in range(1, len(sigmas))]

    neg1 = iso.fhat_inv(iso.fhat(zeta).complement())
    neg_odd, ds = sequence_tail(sigmas, neg1, iso.fhat, PeriodicSet.union)
    if len(ds) < 2:
        raise ValidationError("need at least two d-terms; raise the index count")

    family = AffineFamily(ds[1], k, "union", theta)
    sigma_zeta, cert = countable_infimum(family, certificate=True)

    neg_sigma_zeta = sigma_zeta.complement()
    chi, neg_chi = chi_pair(zeta, neg1, sigma_zeta, neg_sigma_zeta,
                            PeriodicSet.intersect, PeriodicSet.union)

    naturals = PeriodicSet.naturals()
    equations = [
        {
            "claim": "B ~ B/neg_chi x B/chi",
            "via": "coordinate partition",
            "ok": chi.intersect(neg_chi).is_empty() and chi.union(neg_chi) == naturals,
        },
        {
            "claim": "B/zeta ~ B/neg_chi x B/sigma_zeta",
            "via": "coordinate partition of zeta^c",
            "ok": (
                chi.intersect(neg_sigma_zeta).is_empty()
                and chi.union(neg_sigma_zeta) == zeta.complement()
            ),
        },
        {
            "claim": "B/chi ~ B/f_hat(chi)",
            "via": f"shift re-indexing by {k}",
            "ok": chi.complement().shift(k) == iso.fhat(chi).complement(),
        },
        {
            "claim": "f_hat(chi) = sigma_zeta",
            "via": "set equality",
            "ok": iso.fhat(chi) == sigma_zeta,
        },
    ]
    conclusion = {
        "claim": "B ~ B/zeta",
        "identity_on": chi.render(),
        "shift_by": k,
        "shift_from": chi.complement().render(),
        "shift_onto": neg_sigma_zeta.render(),
        "ok": all(e["ok"] for e in equations),
    }

    return OmegaRun(
        base=A, k=k, theta=theta, zeta=zeta, sigmas=sigmas, thetas=thetas,
        neg_odd=neg_odd, ds=ds, sigma_zeta=sigma_zeta, infimum_certificate=cert,
        chi=chi, neg_chi=neg_chi, neg_sigma_zeta=neg_sigma_zeta,
        equations=equations, conclusion=conclusion,
    )


def _d_pairs_may_fail(ds) -> bool:
    # a pair of d-terms misses a coordinate only if two complements share
    # it, so one linear pass decides whether the pairs need checking
    seen = twice = PeriodicSet.empty()
    for d in ds:
        gap = d.complement()
        twice = twice.union(seen.intersect(gap))
        seen = seen.union(gap)
    return not twice.is_empty()


def omega_validate(run: OmegaRun):
    """Symbolic law re-check: the law list shared with the finite validator,
    then theta, sigma_zeta and chi, which only the symbolic run has."""
    iso = run.iso()
    out = sequence_shape(run.sigmas, run.thetas, run.neg_odd, run.ds)
    if out:
        return out
    lattice = SequenceLattice(
        iso.fhat, PeriodicSet.union, PeriodicSet.subset,
        PeriodicSet.is_empty, PeriodicSet.is_naturals,
        ("union", "misses coordinates", "the complement rule"), _d_pairs_may_fail,
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


# ---------------------------------------------------------------------------
# truncation-based validation


def _lowest(bits: int):
    """Position of the lowest set bit of a nonnegative mask, None if there is none."""
    return (bits & -bits).bit_length() - 1 if bits else None


def _window_mismatch(S: PeriodicSet, T: PeriodicSet, m: int):
    """Least coordinate below m in exactly one of S and T, or None."""
    return _lowest(S.bits_below(m) ^ T.bits_below(m))


def check_truncation(k: int, m: int) -> None:
    """Refuse a truncation to m coordinates of a run shifting by k."""
    if m < 2 * k:
        raise ValidationError("truncation must cover at least twice the shift")
    if m > MAX_TRUNCATION:
        raise BudgetError(f"truncation: m reached {m}, over the {MAX_TRUNCATION}-coordinate budget")


def truncate_validate(run: OmegaRun, m: int) -> dict:
    """Check the symbolic run against the finite power on m coordinates.

    Small carriers are materialized and checked exhaustively with real
    congruence arithmetic; larger ones are checked exactly on the coordinate
    sets that define the congruences.  Failures carry named witnesses.
    """
    check_truncation(run.k, m)
    A = run.base
    iso = run.iso()
    carrier = A.size ** m
    materialized = carrier <= MATERIALIZE_CAP
    checks = []

    def record(name, ok, witness=None, method=None):
        entry = {"name": name, "ok": bool(ok)}
        if method is not None:
            entry["method"] = method
        if witness is not None and not ok:
            entry["witness"] = witness
        checks.append(entry)

    def summary():
        return {"ok": all(c["ok"] for c in checks), "m": m, "carrier": carrier,
                "materialized": materialized, "checks": checks,
                "failures": [c for c in checks if not c["ok"]]}

    def record_sets(name, ok, S, T):
        # the two sets are rendered only into a failure's witness
        record(name, ok, None if ok else {"pair": [S.render(), T.render()]})

    # set equations are global and exact, recomputed from the run fields
    record_sets("chi meets neg_chi in the diagonal", run.chi.intersect(run.neg_chi).is_empty(),
                run.chi, run.neg_chi)
    record_sets("chi joins neg_chi to the total", run.chi.union(run.neg_chi) == PeriodicSet.naturals(),
                run.chi, run.neg_chi)
    record_sets("zeta = neg_chi meet sigma_zeta", run.neg_chi.intersect(run.sigma_zeta) == run.zeta,
                run.neg_chi, run.sigma_zeta)
    image = iso.fhat(run.chi)
    record_sets("f_hat(chi) = sigma_zeta", image == run.sigma_zeta, image, run.sigma_zeta)
    shifted, neg_sz = run.chi.complement().shift(run.k), run.sigma_zeta.complement()
    record_sets("chi^c shifted onto sigma_zeta^c", shifted == neg_sz, shifted, neg_sz)

    # sequence laws compared on the coordinate window, as masks of m bits;
    # they read every term by index, so tables that do not fit the sigmas
    # end the check here
    shape = sequence_shape(run.sigmas, run.thetas, run.neg_odd, run.ds)
    for reason in shape:
        record("sequence shape", False, {"reason": reason})
    if shape:
        return summary()
    full = (1 << m) - 1
    for n in range(len(run.sigmas) - 2):
        x = _window_mismatch(iso.fhat(run.sigmas[n]), run.sigmas[n + 2], m)
        record(f"recursion sigma[{n + 2}]", x is None,
               {"pair": [f"f_hat(sigma[{n}])", f"sigma[{n + 2}]"], "coordinate": x})
    for i in sorted(run.neg_odd):
        if i + 2 in run.neg_odd:
            x = _window_mismatch(iso.fhat(run.neg_odd[i]), run.neg_odd[i + 2], m)
            record(f"complement rule neg_sigma[{i + 2}]", x is None,
                   {"pair": [f"f_hat(neg_sigma[{i}])", f"neg_sigma[{i + 2}]"], "coordinate": x})
        miss = _lowest(full ^ (run.sigmas[i].bits_below(m) | run.neg_odd[i].bits_below(m)))
        record(f"totality sigma[{i}] u neg_sigma[{i}]", miss is None,
               {"pair": [f"sigma[{i}]", f"neg_sigma[{i}]"], "coordinate": miss})
    for n, d in enumerate(run.ds):
        want = run.sigmas[2 * n].union(run.neg_odd[2 * n + 1])
        x = _window_mismatch(d, want, m)
        record(f"definition d[{n}]", x is None,
               {"pair": [f"d[{n}]", f"sigma[{2 * n}] u neg_sigma[{2 * n + 1}]"], "coordinate": x})

    pairs = [
        ("zeta", run.zeta, "neg_sigma[1]", run.neg_odd[1]),
        ("chi", run.chi, "neg_chi", run.neg_chi),
        ("sigma_zeta", run.sigma_zeta, "neg_sigma_zeta", run.neg_sigma_zeta),
    ]
    if materialized:
        Bm = power_algebra(A, m)
        restricted = {}

        def cong(name, S):
            if name not in restricted:
                restricted[name] = OmegaCongruence(A, S).restrict(Bm, m)
            return restricted[name]

        for name1, s1, name2, s2 in pairs:
            verdict = check_factor_pair(Bm, cong(name1, s1), cong(name2, s2))
            record(f"factor pair {name1}/{name2}", verdict["ok"],
                   {"pair": [name1, name2], "reason": verdict["reason"],
                    "elements": verdict["witness"]})
        for a in range(len(run.ds)):
            for b in range(a + 1, len(run.ds)):
                joined = congruence_join(cong(f"d[{a}]", run.ds[a]), cong(f"d[{b}]", run.ds[b]))
                record(f"orthogonality d[{a}]/d[{b}]", joined.is_total(),
                       {"pair": [f"d[{a}]", f"d[{b}]"]})
        try:
            # the witness's left factor is B/neg_chi, reused below
            witness = decomposition_witness(Bm, cong("neg_chi", run.neg_chi), cong("chi", run.chi))
            Qnc = witness["left"]
            record("pairing B ~ B/neg_chi x B/chi", True)
        except ValidationError as e:
            record("pairing B ~ B/neg_chi x B/chi", False,
                   {"pair": ["neg_chi", "chi"], "reason": str(e)})
            Qnc = quotient_algebra(Bm, cong("neg_chi", run.neg_chi))

        Qz = quotient_algebra(Bm, cong("zeta", run.zeta))
        Qsz = quotient_algebra(Bm, cong("sigma_zeta", run.sigma_zeta))
        pairing = "pairing B/zeta ~ B/neg_chi x B/sigma_zeta"
        pair = ["zeta", "neg_chi x sigma_zeta"]
        sizes = {"zeta": Qz.algebra.size, "neg_chi": Qnc.algebra.size,
                 "sigma_zeta": Qsz.algebra.size}
        if sizes["zeta"] != sizes["neg_chi"] * sizes["sigma_zeta"]:
            # no bijection exists, and the product may be far larger than B
            record(pairing, False, {"pair": pair, "reason": "size mismatch", "sizes": sizes})
        else:
            prod = direct_product(Qnc.algebra, Qsz.algebra)
            mapping = [
                Qnc.projection.mapping[r] * Qsz.algebra.size + Qsz.projection.mapping[r]
                for r in (block[0] for block in cong("zeta", run.zeta).blocks)
            ]
            try:
                ok = Homomorphism(Qz.algebra, prod, mapping).is_bijective()
                record(pairing, ok, {"pair": pair, "reason": "not bijective"})
            except ValidationError as e:
                record(pairing, False, {"pair": pair, "reason": str(e)})
    else:
        # too large to materialize: every check is exact on coordinate sets
        exact = "coordinate-sets"
        # theta_S on a power is the total congruence of A on the coordinates in
        # S times the diagonal of A off S, and a product of congruences is a
        # congruence, so compatibility rests on those two on the base alone
        base_bad = (compatibility_witness(A, [0] * A.size)
                    or compatibility_witness(A, list(range(A.size))))
        for name in ("zeta", "neg_sigma[1]", "chi", "neg_chi", "sigma_zeta"):
            record(f"compatibility {name}", base_bad is None,
                   {"pair": [name, "base"], "base": base_bad}, exact)
        # theta_S1, theta_S2 are a factor pair of A^m exactly when S1, S2
        # partition the window
        for name1, s1, name2, s2 in pairs:
            # a coordinate in both sets or in neither leaves its XOR bit clear
            bad = _lowest(full ^ s1.bits_below(m) ^ s2.bits_below(m))
            record(f"factor pair {name1}/{name2}",
                   s1.intersect(s2).is_empty() and bad is None,
                   {"pair": [name1, name2], "coordinate": bad}, exact)
        # B/zeta ~ B/neg_chi x B/sigma_zeta reads the coordinates of chi and of
        # sigma_zeta^c, so the ones left free must be exactly those of zeta
        chi, sz, zeta = (S.bits_below(m) for S in (run.chi, run.sigma_zeta, run.zeta))
        bad = _lowest((full ^ chi) & sz ^ zeta)
        record("pairing partition of zeta^c", bad is None,
               {"pair": ["zeta^c", "chi + sigma_zeta^c"], "coordinate": bad}, exact)

    return summary()


# ---------------------------------------------------------------------------
# quasi-cyclic groups


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class QuasiCyclic:
    """The group of p-power-denominator fractions mod 1, via its truncations.

    Elements are reduced pairs (a, k) standing for a / p^k mod 1 with
    p not dividing a, or (0, 0).  The level-m truncation is the subgroup
    of elements with k <= m, a finite cyclic group of order p^m.
    """

    prime: int

    def __post_init__(self):
        if not _is_prime(self.prime):
            raise ValidationError(f"{self.prime} is not prime")

    def reduce(self, a: int, k: int):
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
        a = x[0] * p ** (k - x[1]) + y[0] * p ** (k - y[1])
        return self.reduce(a, k)

    def neg(self, x):
        if x == (0, 0):
            return x
        return self.reduce(self.prime ** x[1] - x[0], x[1])

    def encode(self, pair, m: int) -> int:
        """Element a/p^k as an integer t with pair = t / p^m."""
        a, k = pair
        if k > m:
            raise ValidationError("element lies outside this truncation")
        return a * self.prime ** (m - k)

    def decode(self, t: int, m: int):
        return self.reduce(t, m)

    def truncation(self, m: int) -> FiniteAlgebra:
        size = self.prime ** m
        if size > QC_SIZE_CAP:
            raise BudgetError(
                f"quasi-cyclic truncation: carrier reached {size}, "
                f"over the {QC_SIZE_CAP}-element budget"
            )
        # row a is (a + b) % size for b < size, a slice of 0..size-1 written twice
        doubled = list(range(size)) * 2
        table = tuple(chain.from_iterable(doubled[a:a + size] for a in range(size)))
        return FiniteAlgebra._built(f"z({self.prime}^{m})", size, [Operation("+", 2, table)])

    def subgroup_congruence(self, T: FiniteAlgebra, m: int, j: int) -> Congruence:
        """Collapse by the level-j subgroup inside the level-m truncation."""
        if not (0 <= j <= m):
            raise ValidationError("subgroup level out of range")
        q = self.prime ** (m - j)
        return Congruence(T, [x % q for x in range(T.size)])


def quasicyclic_suite(p: int, n: int, m: int) -> dict:
    """Work the pseudo-simple pattern on the level-m truncation.

    Verifies the congruence chain of subgroup levels, the quotient map
    [t] -> t mod p^(m-n) onto the level-(m-n) truncation, its recomputed
    kernel, and the every-proper-quotient-isomorphic pattern that makes
    the full group satisfy the CBS property over the whole lattice.
    """
    qc = QuasiCyclic(p)
    if not (0 <= n < m <= 10):
        raise ValidationError("need 0 <= n < m <= 10")
    # truncs[j] is the level-(m-j) truncation, which z(p^m) modulo level j should be
    truncs = [qc.truncation(m - j) for j in range(m)]
    T = truncs[0]
    size = T.size

    congs = [qc.subgroup_congruence(T, m, j) for j in range(m + 1)]
    # the projection check of each quotient rejects a level that is not a
    # congruence with ValidationError, so a quotient that exists certifies it
    quotients = [quotient_algebra(T, c) for c in congs]
    chain = []
    chain_ok = True
    for j, c in enumerate(congs):
        if size <= 256:
            method, ok = "exhaustive", True
        else:
            q = p ** (m - j)
            members = range(0, size, q)
            ok = all((a + b) % size % q == 0 for a in members for b in members)
            ok = ok and all((size - a) % size % q == 0 for a in members)
            method = "subgroup_closure"
        chain_ok = chain_ok and ok
        chain.append({"level": j, "blocks": len(c.blocks), "method": method, "ok": ok})
    strict = all(
        congs[j].refines(congs[j + 1]) and congs[j].rep != congs[j + 1].rep
        for j in range(m)
    )
    ends_ok = congs[0].is_diagonal() and congs[m].is_total()

    target = truncs[n]
    iso_ok = quotients[n].algebra.same_tables(target)
    # that projection is x -> x mod p^(m-n) onto equal tables, already checked
    h = quotients[n].projection if iso_ok else Homomorphism(
        T, target, [x % p ** (m - n) for x in range(size)])
    kernel_ok = h.kernel().rep == congs[n].rep

    pattern = [
        {
            "level": j,
            "quotient_size": quotients[j].algebra.size,
            "matches_truncation": quotients[j].algebra.same_tables(truncs[j]),
        }
        for j in range(m)
    ]
    pattern_ok = all(e["matches_truncation"] for e in pattern)

    ok = chain_ok and strict and ends_ok and iso_ok and kernel_ok and pattern_ok
    return {
        "prime": p,
        "n": n,
        "m": m,
        "size": size,
        "ok": ok,
        "chain": chain,
        "chain_strictly_increasing": strict,
        "chain_ends_ok": ends_ok,
        "quotient": {
            "statement": f"z({p}^{m})/z({p}^{n}) ~ z({p}^{m - n})",
            "map": "t -> t mod p^(m-n), identity on representatives",
            "ok": iso_ok,
        },
        "kernel_recomputed_ok": kernel_ok,
        "pseudo_simple_pattern": pattern,
        "conclusion": {
            "every_proper_quotient_isomorphic": pattern_ok,
            "downward_closure_holds": chain_ok and strict and ends_ok,
            "note": "each proper collapse of the full group reproduces the group itself; "
                    "truncations certify the pattern level by level",
        },
    }
