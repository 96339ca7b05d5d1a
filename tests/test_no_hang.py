"""Adversarial CLI inputs refuse at once instead of running for minutes.

Each row runs `python -m cbswb.cli` in a subprocess under a wall-clock
timeout far above its expected time, so that a loop that loses its budget
fails this test instead of hanging the suite.  The budgets count work
rather than time it, so each row asserts the exact exit status and stderr
line.  The inputs are written to a temporary directory; the subprocess
imports the same cbswb package as this test.
"""

import json
import os
import subprocess
import sys

import pytest

import cbswb
from cbswb.algebra import FiniteAlgebra, power_algebra, render_algebra

from oracles import corpus_algebra

TIMEOUT = 10  # seconds; each row takes well under one
SRC = os.path.dirname(os.path.dirname(os.path.abspath(cbswb.__file__)))
MEMBERS = "congruence enumeration: |Con(A)| reached 1025, over the 1024-member budget"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Input name -> path of its JSON file: the 8-element set with no
    operations, the set of 10^8 elements with none, z2^5 and z2."""
    out = {}
    directory = tmp_path_factory.mktemp("no_hang")
    algebras = {"set8": FiniteAlgebra("set8", 8, []),
                "set10^8": FiniteAlgebra("set10^8", 10 ** 8, []),
                "z2^5": power_algebra(corpus_algebra("z2"), 5),
                "z2": corpus_algebra("z2")}
    for name, A in algebras.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(render_algebra(A)))
        out[name] = str(path)
    return out


# (id, argv, the refusal); an argv entry that names an input is its path
ROWS = [
    *[(f"{verb} set8", (verb, "set8"), MEMBERS)
      for verb in ("con", "fc", "center", "zcon", "presheaf-check", "cbs-check", "cbs-complete")],
    ("church z2^5", ("church", "z2^5", "--term", "(+ x y)", "--zero", "0", "--one", "1"),
     "church: evaluations reached 35684352, over the 10000000-evaluation budget"),
    ("omega-demo shift 10^6",
     ("omega-demo", "--base", "z2", "--shift", "1000000", "--zeta", "{0}"),
     "truncation: m reached 2000000, over the 64-coordinate budget"),
    ("omega-demo indices 10^5",
     ("omega-demo", "--base", "z2", "--shift", "1", "--zeta", "{0}", "--indices", "100000"),
     "omega run: indices reached 100000, over the 1024-index budget"),
    # the message names how many elements the partition misses, not each one
    ("quotient set10^8", ("quotient", "set10^8", "--by", "[[0]]"),
     "partition misses 99999999 elements, the least of them 1"),
    ("quasicyclic 2^61-1", ("quasicyclic", "2305843009213693951", "0", "1"),
     "quasi-cyclic truncation: carrier reached 2305843009213693951, "
     "over the 1024-element budget"),
]


@pytest.mark.parametrize("argv, message", [r[1:] for r in ROWS], ids=[r[0] for r in ROWS])
def test_adversarial_input_refuses_in_time(argv, message, inputs):
    args = [inputs.get(a, a) for a in argv]
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-m", "cbswb.cli", *args], capture_output=True,
                          text=True, timeout=TIMEOUT, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")
