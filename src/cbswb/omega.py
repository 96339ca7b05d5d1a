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
from typing import NamedTuple

from .algebra import (
    FiniteAlgebra,
    Homomorphism,
    Operation,
    cell_type,
    concat,
    direct_product,
    power_algebra,
    quotient_algebra,
)
from .congruence import (DEFAULT_CON_CAP, Congruence, compatibility_witness, congruence_join,
                         least_rep, quotient_through)
from .errors import ValidationError, over_budget
from .pset import PeriodicSet, _budget, _of, _rotate
from .structure import check_factor_pair, factor_congruences

MATERIALIZE_CAP = 512
MAX_TRUNCATION = 64
MAX_INDICES = 1024
QC_SIZE_CAP = 1024


# ---------------------------------------------------------------------------
# symbolic congruences and the shift


class OmegaCongruence(NamedTuple):
    """theta_S on the countable power of the base: x ~ y iff they agree off S."""

    base: FiniteAlgebra
    coords: PeriodicSet

    def restrict_rep(self, m: int):
        """Least-representative array of the restriction to the first m coordinates.

        Coordinate 0 is the most significant digit: each coordinate appends
        one digit to every prefix, 0 for a coordinate in S.
        """
        n = self.base.size
        bits = self.coords.bits_below(m)
        rep = [0]
        for i in range(m):
            digits = (0,) * n if bits >> i & 1 else range(n)
            rep = [r * n + d for r in rep for d in digits]
        return rep

    def restrict(self, Bm: FiniteAlgebra, m: int) -> Congruence:
        return Congruence(Bm, self.restrict_rep(m))


class ShiftIso(NamedTuple("ShiftIso", [("k", int)])):
    """Isomorphism of the power onto its quotient by the first k coordinates."""

    __slots__ = ()

    def __new__(cls, k: int):
        if k < 1:
            raise ValidationError("shift amount must be at least 1")
        return super().__new__(cls, k)

    def theta(self) -> PeriodicSet:
        return PeriodicSet.block(0, self.k)

    def fhat(self, S: PeriodicSet) -> PeriodicSet:
        """S shifted by k, with the k coordinates of theta collapsed as well."""
        return S.shift_fill(self.k)

    def fhat_inv(self, S: PeriodicSet) -> PeriodicSet:
        return S.backshift(self.k)

    def window_fhat(self, width: int):
        """fhat on the first width coordinates, as ints: the window of fhat(S)
        from the window w of S.  The shift only moves coordinates up, so it
        reads nothing past the window, and the first k are collapsed."""
        k, full, fill = self.k, (1 << width) - 1, (1 << self.k) - 1
        return lambda w: (w << k | fill) & full


# ---------------------------------------------------------------------------
# countable infima of affine families


class AffineFamily(NamedTuple("AffineFamily", [("v1", PeriodicSet), ("k", int),
                                               ("fixed", PeriodicSet)])):
    """V_1 given; V_{n+1} = shift(V_n, k) union a fixed set."""

    __slots__ = ()

    def __new__(cls, v1: PeriodicSet, k: int, fixed: PeriodicSet):
        if k < 1:
            raise ValidationError("shift amount must be at least 1")
        return super().__new__(cls, v1, k, fixed)

    def step(self, v: PeriodicSet) -> PeriodicSet:
        return v.shift(self.k).union(self.fixed)

    def terms(self, count: int):
        """V_1 .. V_count."""
        out = [self.v1]
        for _ in range(count - 1):
            out.append(self.step(out[-1]))
        return out


def countable_infimum(family: AffineFamily):
    """Intersection of the whole family, decided coordinatewise, and its
    certificate.

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
    n_max = 2 * ((window + k - 1) // k + 1)  # twice the bound of coordinate window - 1
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

    # the residue of coordinate settle + j is (settle + j) mod pattern
    residues = _rotate(bits >> settle & (1 << pattern) - 1, pattern, settle)
    _budget("construction", settle, pattern)
    candidate = _of(settle, bits & (1 << settle) - 1, pattern, residues)
    if candidate.bits_below(window) != bits:
        raise ValidationError("infimum not representable")
    # windows one common period past every threshold decide inclusion
    last = max(candidate.threshold, *(term.threshold for term in terms))
    period = math.lcm(candidate.period, *{term.period for term in terms})
    _budget("subset test", last, period)
    c = candidate.bits_below(last + period)
    if any(c & ~term.bits_below(last + period) for term in terms):
        raise ValidationError("infimum not representable")

    return candidate, {
        "window": window,
        "terms_checked": n_max,
        "stabilization_bound": "ceil((x+1)/k)+1",
        "pattern_period": pattern,
    }


# ---------------------------------------------------------------------------
# the symbolic CBS run


def sequence_tail(sigmas, neg1, fhat, join):
    """neg sigma[i + 2] = f_hat(neg sigma[i]) for the odd i below len(sigmas),
    and d[n] = sigma[2n] join neg sigma[2n + 1], one d-term per odd index."""
    neg_odd = {1: neg1}
    for i in range(3, len(sigmas), 2):
        neg_odd[i] = fhat(neg_odd[i - 2])
    return neg_odd, [join(sigmas[i - 1], neg) for i, neg in neg_odd.items()]


def sequence_shape(sigmas, thetas, neg_odd, ds):
    """Violations of tables that do not fit the sigmas.  The law lists read
    every term by index, so they run only when this returns nothing."""
    odd = list(range(1, len(sigmas), 2))
    out = []
    if len(sigmas) < 2:
        out.append(f"{len(sigmas)} sigmas, fewer than sigma[0] and sigma[1]")
    if len(thetas) != len(sigmas):
        out.append(f"{len(thetas)} thetas for {len(sigmas)} sigmas")
    if sorted(neg_odd) != odd:
        out.append(f"neg sigma is not indexed by the odd indices below {len(sigmas)}")
    if len(ds) != len(odd):
        out.append(f"{len(ds)} d-terms for {len(odd)} odd indices")
    return out


class OmegaRun:
    """Symbolic sequence state over the countable power of the base by the
    shift k.  Every set is a PeriodicSet; thetas is quotient-indexed, so
    thetas[0] is None, and neg_odd maps each odd index to neg sigma there."""

    def __init__(self, base, k, theta, zeta, sigmas, thetas, neg_odd, ds, sigma_zeta,
                 infimum_certificate, chi, neg_chi, neg_sigma_zeta, equations):
        self.base, self.k, self.theta, self.zeta = base, k, theta, zeta
        self.sigmas, self.thetas, self.neg_odd, self.ds = sigmas, thetas, neg_odd, ds
        self.sigma_zeta, self.infimum_certificate = sigma_zeta, infimum_certificate
        self.chi, self.neg_chi, self.neg_sigma_zeta = chi, neg_chi, neg_sigma_zeta
        self.equations = equations

    def to_report(self) -> dict:
        texts = {}  # thetas[n] is the object sigmas[n-1], so many sets recur
        # held for the whole render, so that no later set can reuse its id
        shift_from = self.chi.complement()

        def render(s: PeriodicSet) -> str:
            text = texts.get(id(s))
            if text is None:
                text = texts[id(s)] = s.render()
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
            "conclusion": {
                "claim": "B ~ B/zeta",
                "identity_on": render(self.chi),
                "shift_by": self.k,
                "shift_from": render(shift_from),
                "shift_onto": render(self.neg_sigma_zeta),
                "ok": all(e["ok"] for e in self.equations),
            },
        }


def _require_indecomposable(A: FiniteAlgebra, max_size: int):
    if A.size < 2:
        raise ValidationError("base algebra must have at least two elements")
    if len(factor_congruences(A, max_size=max_size)) != 2:
        raise ValidationError("base algebra decomposable")


def omega_cbs_run(A: FiniteAlgebra, k: int, zeta: PeriodicSet, indices: int = 10,
                  max_size: int = DEFAULT_CON_CAP) -> OmegaRun:
    """Full symbolic CBS-sequence for the shift by k with seed zeta.

    Produces the sigma and d tables, the countable infimum sigma_zeta,
    the complement pair chi / neg_chi and the isomorphism-chain
    certificate expressed as coordinate maps.  The base must be
    indecomposable, which FC(A) decides under the carrier cap max_size.
    """
    if indices > MAX_INDICES:
        raise over_budget("omega run", "indices", indices, MAX_INDICES, "index")
    _require_indecomposable(A, max_size)
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

    sigma_zeta, cert = countable_infimum(AffineFamily(ds[1], k, theta))

    neg_sigma_zeta = sigma_zeta.complement()
    chi, neg_chi = neg1.intersect(sigma_zeta), zeta.union(neg_sigma_zeta)

    naturals = PeriodicSet.naturals()
    fchi = iso.fhat(chi)
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
            "ok": chi.complement().shift(k) == fchi.complement(),
        },
        {
            "claim": "f_hat(chi) = sigma_zeta",
            "via": "set equality",
            "ok": fchi == sigma_zeta,
        },
    ]

    return OmegaRun(
        base=A, k=k, theta=theta, zeta=zeta, sigmas=sigmas, thetas=thetas,
        neg_odd=neg_odd, ds=ds, sigma_zeta=sigma_zeta, infimum_certificate=cert,
        chi=chi, neg_chi=neg_chi, neg_sigma_zeta=neg_sigma_zeta, equations=equations,
    )


def omega_validate(run: OmegaRun):
    """Symbolic law re-check: the sequence laws, then theta, sigma_zeta and
    chi, each with its message, in one fixed order.

    Sets whose thresholds are at most T' and whose periods divide P are
    equal iff they agree on [0, T' + P).  A law compares stored terms, f_hat
    of them (k higher thresholds) and their Boolean combinations, so each
    term is read once as a window of W = T + k + P bits, T the largest
    stored threshold and P the lcm of the stored periods, and the laws are
    decided exactly on those ints, union as | and the total set as every bit.
    """
    iso = ShiftIso(run.k)  # refuses a shift below 1, as the run does
    out = sequence_shape(run.sigmas, run.thetas, run.neg_odd, run.ds)
    if out:
        return out
    named = [run.zeta, run.sigma_zeta, run.chi, run.neg_chi]
    terms = [*run.sigmas, *run.thetas[1:], *run.neg_odd.values(), *run.ds, *named]
    last = max(S.threshold for S in terms)
    period = math.lcm(*{S.period for S in terms})
    _budget("validation window", last + iso.k, period)
    width = last + iso.k + period
    full, fhat = (1 << width) - 1, iso.window_fhat(width)
    sigmas = [S.bits_below(width) for S in run.sigmas]
    neg_odd = {i: S.bits_below(width) for i, S in run.neg_odd.items()}
    ds = [d.bits_below(width) for d in run.ds]
    zeta, sigma_zeta, chi, neg_chi = (S.bits_below(width) for S in named)

    if sigmas[0]:
        out.append("sigma[0] is not the diagonal")
    if sigmas[1] != zeta:
        out.append("sigma[1] differs from zeta")
    for n in range(len(sigmas) - 2):
        if fhat(sigmas[n]) != sigmas[n + 2]:
            out.append(f"f_hat(sigma[{n}]) != sigma[{n + 2}]")
    for n in range(len(sigmas) - 1):
        if sigmas[n] & ~sigmas[n + 1]:
            out.append(f"sigma[{n}] is not below sigma[{n + 1}]")
    # neg sigma[1] is f_hat(zeta)^c shifted back by k, which is zeta^c
    neg1 = full ^ zeta
    if neg_odd[1] != neg1:
        out.append("neg sigma[1] differs from the complement rule")
    for i, neg in sorted(neg_odd.items()):
        if i + 2 in neg_odd and neg_odd[i + 2] != fhat(neg):
            out.append(f"neg sigma[{i + 2}] != f_hat(neg sigma[{i}])")
        if sigmas[i] | neg != full:
            out.append(f"sigma[{i}] union its complement misses coordinates")
    for n, d in enumerate(ds):
        if d != sigmas[2 * n] | neg_odd[2 * n + 1]:
            out.append(f"d[{n}] does not match its definition")
    # a pair of d-terms misses a coordinate only if two gaps share it
    seen = twice = 0
    for d in ds:
        gap = full ^ d
        twice |= seen & gap
        seen |= gap
    if twice:
        for a in range(len(ds)):
            for b in range(a + 1, len(ds)):
                if ds[a] | ds[b] != full:
                    out.append(f"d[{a}] union d[{b}] misses coordinates")
    for n in range(len(ds) - 1):
        if fhat(ds[n]) != ds[n + 1]:
            out.append(f"f_hat(d[{n}]) != d[{n + 1}]")
    for n in range(1, len(run.thetas)):
        if run.thetas[n].bits_below(width) != sigmas[n - 1]:
            out.append(f"theta[{n}] is not the image of sigma[{n - 1}]")
    for n in range(1, len(ds)):
        if sigma_zeta & ~ds[n]:
            out.append(f"sigma_zeta is not below d[{n}]")
    # chi = neg sigma[1] meet sigma_zeta and neg_chi = zeta join neg sigma_zeta
    if chi != neg1 & sigma_zeta:
        out.append("chi does not match its definition")
    if neg_chi != zeta | (full ^ sigma_zeta):
        out.append("neg_chi does not match its definition")
    return out


# ---------------------------------------------------------------------------
# truncation-based validation


def _lowest(bits: int):
    """Position of the lowest set bit of a nonnegative mask, None if there is none."""
    return (bits & -bits).bit_length() - 1 if bits else None


def check_truncation(k: int, m: int) -> None:
    """Refuse a truncation to m coordinates of a run shifting by k."""
    if m < 2 * k:
        raise ValidationError("truncation must cover at least twice the shift")
    if m > MAX_TRUNCATION:
        raise over_budget("truncation", "m", m, MAX_TRUNCATION, "coordinate")


def truncate_validate(run: OmegaRun, m: int) -> dict:
    """Check the symbolic run against the finite power on m coordinates.

    Small carriers are materialized and checked exhaustively with real
    congruence arithmetic; larger ones are checked exactly on the coordinate
    sets that define the congruences.  The result counts the laws checked
    and lists the failed ones with named witnesses.
    """
    check_truncation(run.k, m)
    A = run.base
    materialized = A.size ** m <= MATERIALIZE_CAP
    result = {"m": m, "materialized": materialized, "ok": True, "checks": 0, "failures": []}

    def fail(name, witness, method=None):
        entry = {"name": name, "ok": False}
        if method is not None:
            entry["method"] = method
        entry["witness"] = witness
        result["failures"].append(entry)
        result["ok"] = False

    def record(name, witness, method=None):
        # witness is None for a law that holds
        result["checks"] += 1
        if witness is not None:
            fail(name, witness, method)

    def fail_window(name, bits, pair, method=None):
        # a window law fails at the least coordinate set in bits
        fail(name, {"pair": pair, "coordinate": _lowest(bits)}, method)

    def record_sets(name, ok, S, T):
        # the two sets are rendered only into a failure's witness
        record(name, None if ok else {"pair": [S.render(), T.render()]})

    # set equations are global and exact, recomputed from the run fields
    record_sets("chi meets neg_chi in the diagonal", run.chi.intersect(run.neg_chi).is_empty(),
                run.chi, run.neg_chi)
    record_sets("chi joins neg_chi to the total", run.chi.union(run.neg_chi) == PeriodicSet.naturals(),
                run.chi, run.neg_chi)
    record_sets("zeta = neg_chi meet sigma_zeta", run.neg_chi.intersect(run.sigma_zeta) == run.zeta,
                run.neg_chi, run.sigma_zeta)
    iso = ShiftIso(run.k)
    fchi = iso.fhat(run.chi)
    record_sets("f_hat(chi) = sigma_zeta", fchi == run.sigma_zeta, fchi, run.sigma_zeta)
    shifted, neg_sz = run.chi.complement().shift(run.k), run.sigma_zeta.complement()
    record_sets("chi^c shifted onto sigma_zeta^c", shifted == neg_sz, shifted, neg_sz)

    # sequence laws compared on the coordinate window, as masks of m bits;
    # they read every term by index, so tables that do not fit the sigmas
    # end the check here
    shape = sequence_shape(run.sigmas, run.thetas, run.neg_odd, run.ds)
    for reason in shape:
        record("sequence shape", {"reason": reason})
    if shape:
        return result
    full, fhat = (1 << m) - 1, iso.window_fhat(m)
    sigma = [S.bits_below(m) for S in run.sigmas]
    neg = {i: S.bits_below(m) for i, S in run.neg_odd.items()}
    # a law that holds only counts; its name and pair are spelled out on failure
    checks = 0
    for n in range(len(sigma) - 2):
        checks += 1
        bad = fhat(sigma[n]) ^ sigma[n + 2]
        if bad:
            fail_window(f"recursion sigma[{n + 2}]", bad,
                        [f"f_hat(sigma[{n}])", f"sigma[{n + 2}]"])
    for i in sorted(neg):
        if i + 2 in neg:
            checks += 1
            bad = fhat(neg[i]) ^ neg[i + 2]
            if bad:
                fail_window(f"complement rule neg_sigma[{i + 2}]", bad,
                            [f"f_hat(neg_sigma[{i}])", f"neg_sigma[{i + 2}]"])
        checks += 1
        bad = full ^ (sigma[i] | neg[i])
        if bad:
            fail_window(f"totality sigma[{i}] u neg_sigma[{i}]", bad,
                        [f"sigma[{i}]", f"neg_sigma[{i}]"])
    for n, d in enumerate(run.ds):
        checks += 1
        bad = d.bits_below(m) ^ (sigma[2 * n] | neg[2 * n + 1])
        if bad:
            fail_window(f"definition d[{n}]", bad,
                        [f"d[{n}]", f"sigma[{2 * n}] u neg_sigma[{2 * n + 1}]"])
    result["checks"] += checks

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

        verdicts = {}
        for name1, s1, name2, s2 in pairs:
            verdict = verdicts[name1] = check_factor_pair(Bm, cong(name1, s1), cong(name2, s2))
            record(f"factor pair {name1}/{name2}", None if verdict["ok"] else
                   {"pair": [name1, name2], "reason": verdict["reason"],
                    "elements": verdict["witness"]})
        for a in range(len(run.ds)):
            for b in range(a + 1, len(run.ds)):
                joined = congruence_join(cong(f"d[{a}]", run.ds[a]), cong(f"d[{b}]", run.ds[b]))
                record(f"orthogonality d[{a}]/d[{b}]", None if joined.is_total() else
                       {"pair": [f"d[{a}]", f"d[{b}]"]})
        # B ~ B/neg_chi x B/chi exactly when chi/neg_chi is a factor pair;
        # meet and join are symmetric, so the verdict reads the same both ways
        verdict = verdicts["chi"]
        record("pairing B ~ B/neg_chi x B/chi", None if verdict["ok"] else
               {"pair": ["neg_chi", "chi"],
                "reason": f"not a factor pair: {verdict['reason']} at {verdict['witness']}"})
        Qnc = quotient_algebra(Bm, cong("neg_chi", run.neg_chi))
        Qz = quotient_algebra(Bm, cong("zeta", run.zeta))
        Qsz = quotient_algebra(Bm, cong("sigma_zeta", run.sigma_zeta))
        pairing = "pairing B/zeta ~ B/neg_chi x B/sigma_zeta"
        pair = ["zeta", "neg_chi x sigma_zeta"]
        nz, nnc, nsz = Qz.algebra.size, Qnc.algebra.size, Qsz.algebra.size
        if nz != nnc * nsz:
            # no bijection exists, and the product may be far larger than B
            record(pairing, {"pair": pair, "reason": "size mismatch",
                             "sizes": {"zeta": nz, "neg_chi": nnc, "sigma_zeta": nsz}})
        else:
            prod = direct_product(Qnc.algebra, Qsz.algebra)
            mapping = [
                Qnc.projection.mapping[r] * nsz + Qsz.projection.mapping[r]
                for r in (block[0] for block in cong("zeta", run.zeta).blocks)
            ]
            try:
                ok = Homomorphism(Qz.algebra, prod, mapping).is_bijective()
                record(pairing, None if ok else {"pair": pair, "reason": "not bijective"})
            except ValidationError as e:
                record(pairing, {"pair": pair, "reason": str(e)})
    else:
        # too large to materialize: every check is exact on coordinate sets
        exact = "coordinate-sets"
        # theta_S on a power is the total congruence of A on the coordinates in
        # S times the diagonal of A off S, and a product of congruences is a
        # congruence, so compatibility rests on those two on the base alone
        base_bad = (compatibility_witness(A, [0] * A.size)
                    or compatibility_witness(A, list(range(A.size))))
        for name in ("zeta", "neg_sigma[1]", "chi", "neg_chi", "sigma_zeta"):
            record(f"compatibility {name}", None if base_bad is None else
                   {"pair": [name, "base"], "base": base_bad}, exact)
        # theta_S1, theta_S2 are a factor pair of A^m exactly when S1, S2
        # partition the window
        for name1, s1, name2, s2 in pairs:
            # a coordinate in both sets or in neither leaves its XOR bit clear
            bad = _lowest(full ^ s1.bits_below(m) ^ s2.bits_below(m))
            ok = s1.intersect(s2).is_empty() and bad is None
            record(f"factor pair {name1}/{name2}", None if ok else
                   {"pair": [name1, name2], "coordinate": bad}, exact)
        # B/zeta ~ B/neg_chi x B/sigma_zeta reads the coordinates of chi and of
        # sigma_zeta^c, so the ones left free must be exactly those of zeta
        chi, sz, zeta = (S.bits_below(m) for S in (run.chi, run.sigma_zeta, run.zeta))
        result["checks"] += 1
        bad = (full ^ chi) & sz ^ zeta
        if bad:
            fail_window("pairing partition of zeta^c", bad,
                        ["zeta^c", "chi + sigma_zeta^c"], exact)

    return result


# ---------------------------------------------------------------------------
# quasi-cyclic groups


def _carrier(p: int, m: int) -> int:
    """p^m, the order of the level-m truncation, refused over the carrier cap."""
    size = p ** m
    if size > QC_SIZE_CAP:
        raise over_budget("quasi-cyclic truncation", "carrier", size, QC_SIZE_CAP, "element")
    return size


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class QuasiCyclic(NamedTuple("QuasiCyclic", [("prime", int)])):
    """The group of p-power-denominator fractions mod 1, via its truncations.

    The level-m truncation is the subgroup of fractions a / p^k with
    k <= m, a finite cyclic group of order p^m whose element t stands for
    t / p^m.
    """

    __slots__ = ()

    def __new__(cls, prime: int):
        # the carrier cap before the primality test, whose trial division
        # runs to sqrt(p): a prime over the cap has no truncation past level 0
        _carrier(prime, 1)
        if not _is_prime(prime):
            raise ValidationError(f"{prime} is not prime")
        return super().__new__(cls, prime)

    def truncation(self, m: int) -> FiniteAlgebra:
        size = _carrier(self.prime, m)
        # row a is (a + b) % size for b < size, a slice of 0..size-1 written twice
        doubled = cell_type(size)(range(size)) * 2
        table = concat((doubled[a:a + size] for a in range(size)), type(doubled))
        return FiniteAlgebra._built(f"z({self.prime}^{m})", size, [Operation("+", 2, table)])

    def subgroup_congruence(self, T: FiniteAlgebra, m: int, j: int) -> Congruence:
        """Collapse by the level-j subgroup inside the level-m truncation."""
        if not (0 <= j <= m):
            raise ValidationError("subgroup level out of range")
        q = self.prime ** (m - j)
        return Congruence(T, [x % q for x in range(T.size)])


def quasicyclic_suite(p: int, n: int, m: int) -> dict:
    """Work the pseudo-simple pattern on the level-m truncation.

    Verifies the congruence chain of subgroup levels, each certified on the
    quotient by the level before, the quotient map [t] -> t mod p^(m-n)
    onto the level-(m-n) truncation, its kernel recomputed through the
    chain, and the every-proper-quotient-isomorphic pattern that makes
    the full group satisfy the CBS property over the whole lattice.
    """
    if not (0 <= n < m):
        raise ValidationError("need 0 <= n < m")
    # every prime is at least 2, so a level past this one is over the carrier cap
    levels = QC_SIZE_CAP.bit_length() - 1
    if m > levels:
        raise over_budget("quasi-cyclic suite", "m", m, levels, "level")
    # the carrier cap before the primality test, whose trial division runs to sqrt(p)
    _carrier(p, m)
    qc = QuasiCyclic(p)
    # truncs[j] is the level-(m-j) truncation, which z(p^m) modulo level j should be
    truncs = [qc.truncation(m - j) for j in range(m)]
    T = truncs[0]
    size = T.size

    congs = [qc.subgroup_congruence(T, m, j) for j in range(m + 1)]
    # each level is certified by a projection check, which rejects a level
    # that is not a congruence with ValidationError: level 0 on T, level j on
    # T/level j-1.  Level j-1 relates x and y when x = y mod p^(m-j+1), which
    # gives x = y mod p^(m-j), so it refines level j; quotient_through
    # refuses a level that it does not refine, so the chain ascends
    quotients = [quotient_algebra(T, congs[0])]
    for j in range(1, m + 1):
        quotients.append(quotient_through(quotients[j - 1], congs[j]))
    # every level passed its projection check, so its block of 0 is a
    # subgroup: the method names that closure above 256 elements
    method = "exhaustive" if size <= 256 else "subgroup_closure"
    chain = [{"level": j, "blocks": c.nblocks, "method": method, "ok": True}
             for j, c in enumerate(congs)]
    strict = all(congs[j].rep != congs[j + 1].rep for j in range(m))
    ends_ok = congs[0].is_diagonal() and congs[m].is_total()

    # the level-n projection composes the step maps of the chain, so its
    # kernel and the subgroup level are two routes to one congruence
    kernel_ok = least_rep(quotients[n].projection.mapping) == congs[n].rep

    pattern = [
        {
            "level": j,
            "quotient_size": quotients[j].algebra.size,
            "matches_truncation": quotients[j].algebra.same_tables(truncs[j]),
        }
        for j in range(m)
    ]
    pattern_ok = all(e["matches_truncation"] for e in pattern)
    iso_ok = pattern[n]["matches_truncation"]

    ok = strict and ends_ok and iso_ok and kernel_ok and pattern_ok
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
            "downward_closure_holds": strict and ends_ok,
            "note": "each proper collapse of the full group reproduces the group itself; "
                    "truncations certify the pattern level by level",
        },
    }
