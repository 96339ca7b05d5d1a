"""Expected answers of the benchmark jobs and the checks against them.

The expectations come from how each input was built (`gen.KNOWN`, the
construction of quotients and relabelled copies, the theorems behind the
verbs) and, for carriers of at most 8 elements, from the brute-force
partition oracle in `tests/oracles.py`.  All of them are computed before the
timed loop and none calls into `cbswb`.
"""

import itertools
import json
from types import SimpleNamespace

import oracles

ORACLE_MAX = 8


def _shim(doc):
    """The shape tests/oracles.py reads, built from a generated input document."""
    ops = [SimpleNamespace(**op) for op in doc["operations"]]
    return SimpleNamespace(size=doc["size"], ops=ops)


def _rep(blocks, n):
    rep = [0] * n
    for b in blocks:
        for x in b:
            rep[x] = min(b)
    return tuple(rep)


def _meet(r, s):
    seen = {}
    return tuple(seen.setdefault((r[x], s[x]), x) for x in range(len(r)))


class LatticeOracle:
    """Con(A) by partition filtering, with factor congruences and the centre."""

    def __init__(self, doc):
        n = doc["size"]
        self.cons = sorted(oracles.brute_congruences(_shim(doc)))
        bottom, top = tuple(range(n)), (0,) * n
        meet = {(r, s): _meet(r, s) for r in self.cons for s in self.cons}
        join = {(r, s): oracles.join_closure([r, s], n) for r in self.cons for s in self.cons}

        def composes_to_total(r, s):
            # every (x, y) has a z with x r z and z s y
            return all(any(r[x] == r[z] and s[z] == s[y] for z in range(n))
                       for x in range(n) for y in range(n))

        self.fc = {r for r in self.cons
                   if any(meet[r, s] == bottom and composes_to_total(r, s) for s in self.cons)}
        complemented = {r for r in self.cons
                        if any(meet[r, s] == bottom and join[r, s] == top for s in self.cons)}

        def neutral(z):
            for x, y in itertools.product(self.cons, repeat=2):
                lhs = join[join[meet[z, x], meet[x, y]], meet[y, z]]
                rhs = meet[meet[join[z, x], join[x, y]], join[y, z]]
                if lhs != rhs:
                    return False
            return True

        self.center = {z for z in complemented if neutral(z)}


def prepare(jobs, inputs):
    """Attach oracle answers to the jobs that have a small carrier."""
    cache = {}
    for job in jobs:
        e = job["expect"]
        if e["verb"] not in ("con", "fc", "center", "zcon") or e["size"] > ORACLE_MAX:
            continue
        key = e["structure"]
        if key not in cache:
            cache[key] = LatticeOracle(inputs.docs[key])
        e["oracle"] = cache[key]


def _reps(block_lists, n):
    return {_rep(b, n) for b in block_lists}


def _flat(table):
    """A rendered operation table (bare constant, rows, or flat) as a flat list."""
    if not isinstance(table, list):
        return [table]
    return [v for row in table for v in row] if table and isinstance(table[0], list) else table


def _is_iso(a, b, mapping):
    """Whether `mapping` carries every operation table of a onto that of b."""
    n = a["size"]
    if sorted(mapping) != list(range(b["size"])) or n != b["size"]:
        return False
    for oa, ob in zip(a["operations"], b["operations"]):
        for i, args in enumerate(itertools.product(range(n), repeat=oa["arity"])):
            j = 0
            for x in args:
                j = j * n + mapping[x]
            if mapping[oa["table"][i]] != ob["table"][j]:
                return False
    return True


def _isomorphic(a, b):
    return a["size"] == b["size"] and any(
        _is_iso(a, b, p) for p in itertools.permutations(range(a["size"])))


def check(job, code, stdout, inputs):
    """None when the job's exit code and report match its expectation, else a reason."""
    e = job["expect"]
    if code != e["exit"]:
        return f"exit {code}, expected {e['exit']}"
    doc = json.loads(stdout)
    body = doc["body"]
    if doc["verb"] != e["verb"] or doc["status"] != ("pass" if code == 0 else "refuted"):
        return f"report header {doc['verb']}/{doc['status']}"
    verb = e["verb"]
    n = e.get("size")
    oracle = e.get("oracle")
    if verb == "con":
        got = _reps(body["elements"], n)
        if oracle is not None and got != set(oracle.cons):
            return "Con(A) differs from the partition oracle"
        if "con" in e and len(got) != e["con"]:
            return f"|Con| = {len(got)}, expected {e['con']}"
    elif verb == "fc":
        got = _reps(body["factor_congruences"], n)
        if oracle is not None and got != oracle.fc:
            return "factor congruences differ from the brute-force decomposition"
        if "fc" in e and len(got) != e["fc"]:
            return f"{len(got)} factor congruences, expected {e['fc']}"
    elif verb in ("center", "zcon"):
        got = _reps(body["center" if verb == "center" else "elements"], n)
        if oracle is not None and got != oracle.center:
            return "centre differs from the brute-force lattice centre"
        if "center" in e and len(got) != e["center"]:
            return f"centre of size {len(got)}, expected {e['center']}"
        if verb == "zcon" and not body["boolean"]["ok"]:
            return "the centre of a bounded lattice is Boolean"
    elif verb == "quotient":
        blocks = json.loads(job["argv"][job["argv"].index("--by") + 1])
        proj = body["projection"]
        if any(len({proj[x] for x in b}) != 1 for b in blocks) or len(set(proj)) != len(blocks):
            return "projection does not collapse exactly the given blocks"
        q = dict(body["algebra"], operations=[dict(op, table=_flat(op["table"]))
                                              for op in body["algebra"]["operations"]])
        if not _isomorphic(q, inputs.structures[e["quotient_of"]]):
            return f"quotient is not isomorphic to {e['quotient_of']}"
    elif verb == "iso":
        if body["found"] != e["found"]:
            return f"found = {body['found']}"
        if e["found"] and not _is_iso(*(inputs.docs[k] for k in e["pair"]), body["mapping"]):
            return "reported mapping is not an isomorphism"
    elif verb == "church":
        if len(body["centers"]) != e["centers"]:
            return f"{len(body['centers'])} central elements, expected {e['centers']}"
    elif verb == "presheaf-check":
        if body["failed_conditions"] != e["failed_conditions"]:
            return f"failed conditions {body['failed_conditions']}"
    elif verb == "cbs-check":
        # a finite algebra is never isomorphic to a proper quotient of itself
        if not body["holds"] or body["nontrivial"]:
            return "CBS property must hold without nontrivial instances"
    elif verb == "cbs-complete":
        if body["verdict"] != "certified" or not body["certificate"]["conclusion"]["ok"]:
            return f"verdict {body['verdict']}"
    elif verb == "omega-demo":
        if body["validation_violations"]:
            return "symbolic law violations"
        if not body["conclusion"]["ok"]:
            return "conclusion not certified"
        for t in body["truncations"]:
            if not t["ok"] or t["failures"]:
                return f"truncation m={t['m']} failed"
            if t["materialized"] != e["materialized"]:
                return f"truncation m={t['m']} materialized = {t['materialized']}"
    elif verb == "quasicyclic":
        if not body["ok"] or body["size"] != e["carrier"]:
            return "quasi-cyclic pattern not certified"
    return None
