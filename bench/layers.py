"""Per-layer spans and counters, installed on `cbswb` from outside.

Each traced function is replaced by a wrapper that records a span (name,
start, end, parent span, job).  The package's modules import names from
each other (`from .congruence import congruence_join`), so the wrapper is
bound into every `cbswb` module that holds the original object, not only
the defining one.  Constructors are traced through the class's `__init__`,
methods through the class attribute.  `FiniteAlgebra.apply` and
`PeriodicSet.__init__` get counters only, no spans.

Spans stay in memory in flat arrays until `write` is called at the end of
the run.  A span's self time is its duration minus the durations of its
direct children.
"""

import gzip
import sys
import time
from array import array

TRACED = {
    "algebra": ["parse_algebra", "power_algebra", "direct_product", "quotient_algebra", "relabel",
                "Homomorphism", "iso_search", "satisfies"],
    "congruence": ["generated_congruence", "congruence_join", "congruence_meet",
                   "compatibility_witness", "all_congruences", "CongruenceLattice",
                   "quotient_lift", "transport", "compose"],
    "lattice": ["FiniteLattice", "FiniteLattice.neutrality_failure"],
    "structure": ["check_factor_pair", "factor_congruences", "decomposition_witness",
                  "center_of_lattice", "bfc_check", "z_con_report", "church_centers"],
    "cbs": ["operator_eval", "boolean_sublattice_check", "presheaf_check", "cbs_property_check",
            "cbs_complete_check", "cbs_sequence", "f_hat", "f_hat_inverse"],
    "pset": ["PeriodicSet.union", "PeriodicSet.intersect", "PeriodicSet.difference",
             "PeriodicSet.complement", "PeriodicSet.shift", "PeriodicSet.backshift",
             "PeriodicSet.subset"],
    "omega": ["omega_cbs_run", "countable_infimum", "omega_validate", "truncate_validate",
              "quasicyclic_suite"],
    "report": ["render_report"],
    "cli": ["main"],
}

# counter name -> (module, class, method)
COUNTED = {
    "algebra.apply": ("algebra", "FiniteAlgebra", "apply"),
    "pset.PeriodicSet": ("pset", "PeriodicSet", "__init__"),
}

# ratio name -> (numerator counter, denominator counter)
RATIOS = {
    "congruence.all_congruences.join_yield": ("con_new", "con_joins"),
    "algebra.iso_search.hit_share": ("iso_hits", "algebra.iso_search"),
    "structure.check_factor_pair.ok_share": ("fp_ok", "structure.check_factor_pair"),
    "omega.truncate_validate.materialized_share": ("tv_mat", "omega.truncate_validate"),
}


def span_names():
    return [f"{mod}.{name}" for mod, names in TRACED.items() for name in names]


def metric_names():
    """Every per-layer metric the traced run reports, with its unit."""
    out = []
    for name in span_names():
        out += [(name + ".calls", "count"), (name + ".self_s", "s")]
    out += [(name + ".calls", "count") for name in COUNTED]
    out += [(mod + ".self_s", "s") for mod in TRACED]
    out += [(name, "ratio") for name in RATIOS]
    return out


class Tracer:
    def __init__(self):
        self.names = span_names()
        self.name_ids = {n: i for i, n in enumerate(self.names)}
        self.kind = array("H")
        self.parent = array("q")
        self.job = array("I")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.counts = dict.fromkeys(list(COUNTED) + ["con_new", "con_joins", "iso_hits", "fp_ok",
                                                      "tv_mat"], 0)
        self.jobs = 0
        self._restore = []
        # principal congruences seen under each open all_congruences span
        self._principals = {}

    # -- installation ------------------------------------------------------

    def install(self):
        mods = {m: sys.modules["cbswb." + m] for m in TRACED}
        package = [m for k, m in sys.modules.items() if k == "cbswb" or k.startswith("cbswb.")]
        for mod, names in TRACED.items():
            for name in names:
                full = f"{mod}.{name}"
                if "." in name:
                    cls, meth = name.split(".")
                    self._patch_attr(getattr(mods[mod], cls), meth, full)
                else:
                    obj = getattr(mods[mod], name)
                    if isinstance(obj, type):
                        self._patch_attr(obj, "__init__", full)
                    else:
                        wrapper = self._span(full, obj)
                        for m in package:
                            for attr, val in list(vars(m).items()):
                                if val is obj:
                                    self._set(m, attr, wrapper)
        for counter, (mod, cls, meth) in COUNTED.items():
            owner = getattr(mods[mod], cls)
            self._set(owner, meth, self._counter(counter, owner.__dict__[meth]))

    def uninstall(self):
        for owner, attr, val in reversed(self._restore):
            setattr(owner, attr, val)
        self._restore.clear()

    def _set(self, owner, attr, val):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, val)

    def _patch_attr(self, owner, attr, full):
        self._set(owner, attr, self._span(full, owner.__dict__[attr]))

    # -- wrappers ----------------------------------------------------------

    def _counter(self, name, fn):
        counts = self.counts

        def counted(*args, **kw):
            counts[name] += 1
            return fn(*args, **kw)

        return counted

    def _span(self, full, fn):
        kid = self.name_ids[full]
        kind, parent, job, start, end = self.kind, self.parent, self.job, self.start, self.end
        stack, clock = self.stack, time.perf_counter
        observe = getattr(self, "_observe_" + full.replace(".", "_"), None)

        def traced(*args, **kw):
            idx = len(start)
            if not stack:  # a new job starts with a root span
                self.jobs += 1
            up = stack[-1] if stack else -1
            kind.append(kid)
            parent.append(up)
            job.append(self.jobs)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kw)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(result, idx, up)
            return result

        traced.__wrapped__ = fn
        return traced

    def _parent_is(self, up, full):
        return up >= 0 and self.kind[up] == self.name_ids[full]

    # -- observations for the ratios ----------------------------------------

    def _observe_congruence_generated_congruence(self, result, idx, up):
        # principal congruences are generated directly under all_congruences
        if self._parent_is(up, "congruence.all_congruences"):
            self._principals.setdefault(up, set()).add(result.rep)

    def _observe_congruence_congruence_join(self, result, idx, up):
        if self._parent_is(up, "congruence.all_congruences"):
            self.counts["con_joins"] += 1

    def _observe_congruence_all_congruences(self, result, idx, up):
        principals = self._principals.pop(idx, set())
        self.counts["con_new"] += len(result) - 1 - len(principals)

    def _observe_algebra_iso_search(self, result, idx, up):
        self.counts["iso_hits"] += bool(result)

    def _observe_structure_check_factor_pair(self, result, idx, up):
        self.counts["fp_ok"] += bool(result["ok"])

    def _observe_omega_truncate_validate(self, result, idx, up):
        self.counts["tv_mat"] += bool(result["materialized"])

    # -- results -----------------------------------------------------------

    def summary(self, passes):
        """Per-layer metrics, as totals per pass over the job list."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            up = self.parent[i]
            if up >= 0:
                child[up] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            k = self.kind[i]
            calls[k] += 1
            self_s[k] += self.end[i] - self.start[i] - child[i]
        out = {}
        modules = dict.fromkeys(TRACED, 0.0)
        for k, name in enumerate(self.names):
            out[name + ".calls"] = calls[k] / passes
            out[name + ".self_s"] = self_s[k] / passes
            modules[name.split(".")[0]] += self_s[k] / passes
        for name in COUNTED:
            out[name + ".calls"] = self.counts[name] / passes
        for mod, s in modules.items():
            out[mod + ".self_s"] = s
        totals = dict(self.counts, **{name: calls[k] for k, name in enumerate(self.names)})
        for name, (num, den) in RATIOS.items():
            out[name] = totals[num] / totals[den] if totals[den] else 0.0
        return out

    def write(self, path):
        """Write every span as `job name parent start end` lines, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i in range(len(self.start)):
                fh.write(f"{self.job[i]} {self.names[self.kind[i]]} {self.parent[i]} "
                         f"{self.start[i]:.9f} {self.end[i]:.9f}\n")
