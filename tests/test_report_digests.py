"""Every report's bytes, pinned.

The three benchmark workloads' jobs at seed 3, whose inputs bench/gen.py
writes, and every corpus file under each one-file verb, and under
presheaf-check with each operator kind besides its default, in both formats
run through cli.main in this process; four runs on carriers of 256 and
512 elements, either side of the largest carrier whose tables are bytes;
and presheaf-check --kind fc in both formats on the 8-element algebra rc,
whose factor block lists quotient pairs.
The exit status and the sha256 of standard output of each run must equal
its row in report_digests.json, so a change that alters any report fails
here.  A change that alters reports on
purpose rewrites the table and says so in CHANGES.md:

    PYTHONPATH=src python tests/test_report_digests.py > tests/report_digests.json
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
import tempfile

from cbswb import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS = os.path.join(ROOT, "corpus")
TABLE = os.path.join(ROOT, "tests", "report_digests.json")
SEED = 3
WORKLOADS = ("finite-lattice", "truncation", "symbolic")
FILE_VERBS = ("con", "fc", "center", "zcon", "presheaf-check", "cbs-check", "cbs-complete")
# presheaf-check's other operator kinds; "x = x" puts every congruence in K(A)
PRESHEAF_KINDS = (("--kind", "con"), ("--kind", "zcon"), ("--kind", "rel", "--sentence", "x = x"))
# truncations of 2^8 and 2^9 elements: bytes tables up to 256 elements, tuples above
BOUNDARY_LEVELS = (8, 9)
# a reversal r and a collapse c: the factor block of its fc presheaf-check
# lists quotient pairs, which no corpus file or workload job does
RC = {"name": "rc", "size": 8, "operations": [
    {"name": "r", "arity": 1, "table": [7, 6, 5, 4, 3, 2, 1, 0]},
    {"name": "c", "arity": 1, "table": [0, 0, 0, 0, 4, 4, 4, 4]}]}


def load_gen():
    spec = importlib.util.spec_from_file_location("bench_gen", os.path.join(ROOT, "bench", "gen.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def runs(workdir):
    """(key, argv) of every pinned run; inputs are written under workdir.
    Workload jobs are keyed by index, since one argv can appear twice."""
    gen = load_gen()
    for workload in WORKLOADS:
        jobs, _, _ = gen.generate(workload, SEED, CORPUS, os.path.join(workdir, workload))
        for i, job in enumerate(jobs):
            yield f"{workload} {i}", job["argv"]
    for fn in sorted(os.listdir(CORPUS)):
        if fn.endswith(".json"):
            path = os.path.join(CORPUS, fn)
            for verb in FILE_VERBS:
                for fmt in ("text", "json"):
                    yield f"corpus {fn[:-5]} {verb} {fmt}", [verb, path, "--format", fmt]
            for extra in PRESHEAF_KINDS:
                for fmt in ("text", "json"):
                    yield (f"corpus {fn[:-5]} presheaf-check {' '.join(extra)} {fmt}",
                           ["presheaf-check", path, *extra, "--format", fmt])
    for m in BOUNDARY_LEVELS:
        yield f"boundary quasicyclic 2 1 {m}", ["quasicyclic", "2", "1", str(m)]
        yield (f"boundary omega-demo z2 --shift 2 --zeta {{1}} --truncate {m}",
               ["omega-demo", "--base", os.path.join(CORPUS, "z2.json"),
                "--shift", "2", "--zeta", "{1}", "--truncate", str(m)])
    rc = os.path.join(workdir, "rc.json")
    with open(rc, "w") as fh:
        json.dump(RC, fh)
    for fmt in ("text", "json"):
        yield f"rc presheaf-check --kind fc {fmt}", ["presheaf-check", rc, "--kind", "fc", "--format", fmt]


def digest(argv):
    """[exit status, sha256 of standard output] of one in-process run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return [code, hashlib.sha256(out.getvalue().encode()).hexdigest()]


def test_every_report_matches_its_pinned_digest(tmp_path):
    with open(TABLE) as fh:
        table = json.load(fh)
    prefix = str(tmp_path) + os.sep
    seen, bad = set(), []
    for key, argv in runs(str(tmp_path)):
        seen.add(key)
        got = digest(argv)
        if table.get(key) != got:
            shown = [a.replace(prefix, "").replace(ROOT + os.sep, "") for a in argv]
            bad.append(f"{key}: {shown} gave {got}, pinned {table.get(key)}")
    bad += [f"{key}: pinned but no longer run" for key in sorted(table.keys() - seen)]
    assert not bad, "\n".join(bad)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        rows = [f"  {json.dumps(key)}: {json.dumps(digest(argv))}" for key, argv in runs(tmp)]
    sys.stdout.write("{\n" + ",\n".join(rows) + "\n}\n")
