"""Seeded input generator for the benchmark.

Builds every algebra table itself from the corpus documents (powers,
products and carrier relabellings are plain table arithmetic here, never
calls into `cbswb`), writes the inputs as JSON and returns the job list of
each workload.  A seed changes only carrier labels and the symbolic
`--zeta` sets, never the structure of an input, so the expected answers
are fixed across seeds while the bytes the program sees are not.
"""

import hashlib
import itertools
import json
import os
import random


def load_corpus(corpus_dir):
    """Corpus documents keyed by name, with every table flattened."""
    out = {}
    for fn in sorted(os.listdir(corpus_dir)):
        if not fn.endswith(".json"):
            continue
        with open(os.path.join(corpus_dir, fn)) as fh:
            doc = json.load(fh)
        ops = []
        for op in doc["operations"]:
            t = op["table"]
            if op["arity"] == 0:
                t = [t[0] if isinstance(t, list) else t]
            elif isinstance(t[0], list):
                t = [v for row in t for v in row]
            ops.append({"name": op["name"], "arity": op["arity"], "table": list(t)})
        out[doc["name"]] = {"name": doc["name"], "size": doc["size"], "operations": ops}
    return out


def _index(args, n):
    idx = 0
    for a in args:
        idx = idx * n + a
    return idx


def product(a, b, name):
    """Componentwise product; the pair (x, y) is encoded as x*|b| + y."""
    nb = b["size"]
    n = a["size"] * nb
    ops = []
    for oa, ob in zip(a["operations"], b["operations"]):
        table = []
        for args in itertools.product(range(n), repeat=oa["arity"]):
            xs = [p // nb for p in args]
            ys = [p % nb for p in args]
            table.append(oa["table"][_index(xs, a["size"])] * nb + ob["table"][_index(ys, nb)])
        ops.append({"name": oa["name"], "arity": oa["arity"], "table": table})
    return {"name": name, "size": n, "operations": ops}


def power(a, k, name):
    out = a
    for _ in range(k - 1):
        out = product(out, a, name)
    return dict(out, name=name)


def relabel(a, perm):
    """Copy of `a` in which element x is called perm[x]."""
    n = a["size"]
    inv = [0] * n
    for x, y in enumerate(perm):
        inv[y] = x
    ops = []
    for op in a["operations"]:
        table = [perm[op["table"][_index([inv[y] for y in args], n)]]
                 for args in itertools.product(range(n), repeat=op["arity"])]
        ops.append({"name": op["name"], "arity": op["arity"], "table": table})
    return {"name": a["name"], "size": n, "operations": ops}


def structures(corpus):
    """Every finite-lattice input before relabelling, keyed by name."""
    c = corpus
    out = dict(corpus)
    out["z2^3"] = power(c["z2"], 3, "z2^3")
    out["z2^4"] = power(c["z2"], 4, "z2^4")
    out["z3^2"] = power(c["z3"], 2, "z3^2")
    out["chain2^3"] = power(c["chain2"], 3, "chain2^3")
    out["chain3^2"] = power(c["chain3"], 2, "chain3^2")
    out["semilat2^3"] = power(c["semilat2"], 3, "semilat2^3")
    out["boole2^3"] = power(c["boole2"], 3, "boole2^3")
    out["v4xz4"] = product(c["v4"], c["z4"], "v4xz4")
    out["z4ring^2"] = power(c["z4ring"], 2, "z4ring^2")
    out["z2^2"] = power(c["z2"], 2, "z2^2")
    out["z2xz4"] = product(c["z2"], c["z4"], "z2xz4")
    return out


# |Con|, number of factor congruences and size of the centre of Con(A) for
# the inputs above 8 elements, where the partition oracle is too slow.
# Derived from the construction: z3^2 is the plane over GF(3), whose
# subspace lattice is M4 and where every subspace has a complement;
# Con(chain3^2) is the Boolean lattice 2^4 and its factor congruences are
# the kernels of the 4 coordinate splittings; the ideals of z4ring^2 are
# the 3x3 pairs of ideals of Z4; the 27 subgroups of Z2xZ2xZ4 were counted
# by closing every generator triple.
KNOWN = {
    "z3^2": {"con": 6, "fc": 6, "center": 2},
    "chain3^2": {"con": 16, "fc": 4, "center": 16},
    "v4xz4": {"con": 27},
    "z4ring^2": {"con": 9},
}

# (left factor, right factor) of every product built above, so the kernel
# of the left projection is known to be a congruence with quotient `left`.
FACTORS = {
    "z2^3": ("z2^2", "z2"),
    "chain3^2": ("chain3", "chain3"),
    "z4ring^2": ("z4ring", "z4ring"),
    "v4xz4": ("v4", "z4"),
}


def _perm(rng, n):
    p = list(range(n))
    rng.shuffle(p)
    return p


class InputSet:
    """Relabelled inputs written under `workdir`, with the permutations used.

    `structures` holds every input before relabelling, keyed by name.
    """

    def __init__(self, workdir, rng, structures):
        self.workdir = workdir
        self.rng = rng
        self.structures = structures
        self.docs = {}
        self.perms = {}
        self.files = []

    def add(self, key, doc):
        """Write a seeded relabelling of `doc` as `<key>.json`; return its path."""
        if key not in self.docs:
            perm = _perm(self.rng, doc["size"])
            self.docs[key] = relabel(doc, perm)
            self.perms[key] = perm
            path = os.path.join(self.workdir, key + ".json")
            with open(path, "w") as fh:
                json.dump(self.docs[key], fh, sort_keys=True)
            self.files.append(path)
        return os.path.join(self.workdir, key + ".json")

    def constant(self, key, name):
        return next(op["table"][0] for op in self.docs[key]["operations"] if op["name"] == name)

    def kernel_blocks(self, key, right_size):
        """Blocks of the left-projection kernel of a product, in relabelled names."""
        perm = self.perms[key]
        n = len(perm)
        return [sorted(perm[p] for p in range(i * right_size, (i + 1) * right_size))
                for i in range(n // right_size)]


def _job(argv, **expect):
    expect.setdefault("exit", 0)
    expect.setdefault("verb", argv[0])
    return {"argv": argv + ["--format", "json"], "expect": expect}


def finite_lattice_jobs(inputs, S, corpus):
    """Small Con(A) enumerations and the verbs built on them, with 5 refutations."""
    jobs = []
    big = ["--max-size", "16"]

    def facts(name):
        return dict(KNOWN.get(name, {}), structure=name, size=S[name]["size"])

    for n in corpus:
        p = inputs.add(n, S[n])
        for verb in ("con", "fc", "center", "zcon"):
            jobs.append(_job([verb, p], **facts(n)))
    for n, verbs in (
        ("z2^3", ("con", "fc", "center", "zcon")),
        ("z3^2", ("con", "fc", "center", "zcon")),
        ("chain2^3", ("con", "fc")),
        ("chain3^2", ("con", "center")),
        ("semilat2^3", ("con",)),
        ("boole2^3", ("con", "fc")),
        ("v4xz4", ("con",)),
        ("z4ring^2", ("con",)),
    ):
        p = inputs.add(n, S[n])
        for verb in verbs:
            jobs.append(_job([verb, p] + (big if S[n]["size"] > 8 else []), **facts(n)))

    # quotients by the kernel of a product's left projection
    z4 = inputs.add("z4", S["z4"])
    zp = inputs.perms["z4"]
    jobs.append(_job(["quotient", z4, "--by", json.dumps([sorted([zp[0], zp[2]]), sorted([zp[1], zp[3]])])],
                     quotient_of="z2"))
    for n, (left, right) in FACTORS.items():
        p = inputs.add(n, S[n])
        blocks = sorted(inputs.kernel_blocks(n, S[right]["size"]))
        jobs.append(_job(["quotient", p, "--by", json.dumps(blocks)], quotient_of=left))

    # isomorphisms between two relabellings of one structure, and refutations
    for n in ("z4", "v4", "lat22", "z4ring", "boole2^3", "z3^2", "chain3^2", "z2^3"):
        a = inputs.add(n, S[n])
        b = inputs.add(n + ".b", S[n])
        jobs.append(_job(["iso", a, b] + big, found=True, pair=(n, n + ".b")))
    for x, y in (("z4", "v4"), ("z2^3", "z2xz4"), ("z2^4", "v4xz4")):
        a, b = inputs.add(x, S[x]), inputs.add(y, S[y])
        jobs.append(_job(["iso", a, b] + big, exit=1, found=False))

    # every element of a Boolean algebra is central
    p = inputs.add("boole2", S["boole2"])
    jobs.append(_job(["church", p, "--term", "(or (and z x) (and (not z) y))",
                      "--zero", str(inputs.constant("boole2", "0")),
                      "--one", str(inputs.constant("boole2", "1"))], centers=2))

    # chain3 is directly indecomposable while all 4 elements of Con(chain3) = 2^2
    # are central, so zcon breaks the factor axiom; the factor congruences of
    # v4 are not a Boolean sublattice (each one has two complements)
    for n, kind, extra, failed in (
        ("v4", "fc", ["--boolean"], ["boolean"]),
        ("chain3", "zcon", [], ["factor"]),
        ("z4", "fc", [], []),
        ("lat22", "con", [], []),
        ("v4", "con", [], []),
        ("z3^2", "fc", big, []),
    ):
        p = inputs.add(n, S[n])
        jobs.append(_job(["presheaf-check", p, "--kind", kind] + extra,
                         exit=1 if failed else 0, failed_conditions=failed))

    for n, args in (
        ("z4", ["--kind", "rel", "--sentence", "(+ x y) = (+ y x)"]),
        ("v4", ["--kind", "rel", "--sentence", "(+ x (+ y z)) = (+ (+ x y) z)"]),
        ("z4ring", ["--kind", "rel", "--sentence", "(mul x y) = (mul y x)"]),
        ("lat22", ["--kind", "fc"]),
        ("z3^2", ["--kind", "con"] + big),
    ):
        jobs.append(_job(["cbs-check", inputs.add(n, S[n])] + args))

    for n in ("z4", "v4", "lat22", "chain3", "z3^2", "z2^3"):
        p = inputs.add(n, S[n])
        jobs.append(_job(["cbs-complete", p] + (big if S[n]["size"] > 8 else [])))
    return jobs


def _zeta(rng, k, count):
    return "{" + ",".join(str(x) for x in sorted(rng.sample(range(k), count))) + "}"


def truncation_jobs(inputs, S, corpus):
    """Many small materialized truncations and a few on carriers of 81 to 243."""
    jobs = []
    for base, k, ms in (
        ("z2", 1, (2, 3, 4, 5, 6)), ("z2", 2, (4, 5, 5, 6, 6, 7)), ("z2", 3, (6,)),
        ("z3", 1, (2, 3, 4)), ("z3", 2, (4,)),
        ("chain2", 1, (2, 3, 4, 5)), ("chain2", 2, (4, 5, 6)),
        ("semilat2", 1, (2, 3, 4, 5, 6)), ("semilat2", 2, (4, 5, 5, 6)), ("semilat2", 3, (6,)),
    ):
        p = inputs.add(base, S[base])
        for m in ms:
            zeta = _zeta(inputs.rng, k, (k + 1) // 2)
            jobs.append(_job(["omega-demo", "--base", p, "--shift", str(k), "--zeta", zeta,
                              "--truncate", str(m)], materialized=S[base]["size"] ** m <= 512))
    for p, ns, m in (
        (2, (1, 2, 3), 4), (2, (1, 2, 3, 4), 5), (2, (1, 2, 3, 4, 5), 6), (2, (3,), 7),
        (3, (1, 2), 3), (3, (1, 2, 3), 4), (3, (2,), 5),
        (5, (1,), 2), (5, (1, 2), 3), (7, (1,), 2), (11, (1,), 2), (13, (1,), 2),
    ):
        for n in ns:
            jobs.append(_job(["quasicyclic", str(p), str(n), str(m)], carrier=p ** m))
    return jobs


def symbolic_jobs(inputs, S, corpus):
    """Symbolic runs whose truncations all lie above the materialize cap."""
    jobs = []
    for base, k, indices, m, draws in (
        ("z2", 2, 150, 10, 2), ("z2", 3, 120, 10, 2), ("z2", 4, 100, 10, 2), ("z2", 4, 30, 10, 2),
        ("z2", 5, 40, 10, 2), ("z2", 6, 100, 12, 2), ("z2", 7, 40, 14, 2), ("z2", 8, 50, 16, 2),
        ("z2", 8, 30, 16, 2), ("z2", 10, 30, 20, 2), ("z2", 12, 60, 24, 2), ("z2", 16, 64, 32, 2),
        ("z2", 16, 32, 32, 2), ("z2", 20, 30, 40, 2), ("z2", 24, 48, 48, 2), ("z2", 32, 48, 64, 2),
        ("z3", 3, 30, 6, 2), ("z3", 4, 60, 8, 2), ("z3", 5, 60, 10, 2), ("z3", 6, 30, 12, 2),
        ("z3", 8, 50, 16, 2), ("z3", 10, 30, 20, 2), ("z3", 12, 30, 24, 2), ("z3", 16, 32, 32, 2),
        ("z3", 32, 40, 64, 2),
    ):
        p = inputs.add(base, S[base])
        for _ in range(draws):
            zeta = _zeta(inputs.rng, k, max(1, k // 4))
            jobs.append(_job(["omega-demo", "--base", p, "--shift", str(k), "--zeta", zeta,
                              "--indices", str(indices), "--truncate", str(m)], materialized=False))
    return jobs


WORKLOADS = {
    "finite-lattice": finite_lattice_jobs,
    "truncation": truncation_jobs,
    "symbolic": symbolic_jobs,
}


def generate(workload, seed, corpus_dir, workdir):
    """Write the inputs of one workload run; return (jobs, inputs, digest).

    The digest covers every input file and every job's arguments relative
    to `workdir`, so two commits that print the same digest ran the same jobs.
    """
    os.makedirs(workdir, exist_ok=True)
    corpus = load_corpus(corpus_dir)
    inputs = InputSet(workdir, random.Random(seed), structures(corpus))
    jobs = WORKLOADS[workload](inputs, inputs.structures, sorted(corpus))
    if len(jobs) < 50:
        raise ValueError("a job list needs 50 jobs so that 10 lie above its 80th percentile")
    h = hashlib.sha256()
    for path in sorted(inputs.files):
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + b"\0" + fh.read())
    prefix = workdir + os.sep
    for job in jobs:
        h.update(json.dumps([a.replace(prefix, "") for a in job["argv"]]).encode())
    return jobs, inputs, h.hexdigest()
