"""Command-line surface: exit codes, report stability, error handling."""

import argparse
import ast
import json
import math
import os
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cbswb import cli
from cbswb.algebra import FiniteAlgebra, Operation, direct_product, power_algebra, render_algebra
from cbswb.cli import build_parser, main
from cbswb.congruence import all_congruences
from cbswb.errors import FormatError
from cbswb.report import Report, json_text, lattice_dot, parse_report, render_report
from oracles import CORPUS_NAMES, corpus_algebra, text_lines

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
V4 = "corpus/v4.json"
Z2 = "corpus/z2.json"
Z4 = "corpus/z4.json"
# 2,000 nested applications: past the parser's depth limit, and deep enough
# that a recursive walk would exceed the interpreter's recursion limit
DEEP_TERM = "(not " * 2000 + "x" + ")" * 2000


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- the worked command lines --------------------------------------------------


def test_fc_example(capsys):
    code, out, err = run(capsys, "fc", V4)
    assert code == 0 and err == ""
    assert out.startswith("cbswb-report/1\nverb: fc\nstatus: pass\n")
    assert "algebra: v4" in out
    assert "[4]: [[0, 1, 2, 3]]" in out          # five factor congruences
    assert "reason: complement_not_unique" in out  # the Boolean check fails on v4
    assert "ok: false" in out


def test_iso_example_refuted(capsys):
    code, out, err = run(capsys, "iso", Z4, V4)
    assert code == 1
    assert "status: refuted" in out
    assert "found: false" in out and "no isomorphism" in out

    code, out, _ = run(capsys, "iso", Z4, Z4)
    assert code == 0 and "found: true" in out


def test_omega_demo_example(capsys):
    code, out, err = run(capsys, "omega-demo", "--base", Z2, "--shift", "2",
                         "--zeta", "{0}")
    assert code == 0 and err == ""
    assert "sigma_zeta: prefix=1;period=2;residues={1}" in out
    assert "chi: prefix=;period=2;residues={1}" in out
    assert "neg_chi: prefix=;period=2;residues={0}" in out
    assert "validation_violations: []" in out
    assert "m: 4" in out and "ok: true" in out


def test_con_z4_is_byte_frozen(capsys):
    want = """cbswb-report/1
verb: con
status: pass
algebra: z4
size: 3
elements:
  [0]: [[0], [1], [2], [3]]
  [1]: [[0, 2], [1, 3]]
  [2]: [[0, 1, 2, 3]]
order: [[true, true, true], [false, true, true], [false, false, true]]
meet: [[0, 0, 0], [0, 1, 1], [0, 1, 2]]
join: [[0, 1, 2], [1, 1, 2], [2, 2, 2]]
modular: true
distributive: true
"""
    code, out, _ = run(capsys, "con", Z4)
    assert code == 0 and out == want


def test_every_verb_runs_clean(capsys):
    batteries = [
        ("con", "corpus/chain3.json"),
        ("fc", Z4),
        ("center", V4),
        ("zcon", "corpus/lat22.json"),
        ("quotient", Z4, "--by", "[[0,2],[1,3]]"),
        ("iso", "corpus/z2.json", Z2),
        ("church", "corpus/boole2.json", "--term", "(or (and z x) (and (not z) y))",
         "--zero", "0", "--one", "1"),
        ("presheaf-check", V4),
        ("presheaf-check", Z4, "--kind", "rel", "--sentence", "(+ x y) = (+ y x)"),
        ("cbs-check", V4),
        ("cbs-check", V4, "--kind", "zcon"),
        ("cbs-complete", Z4),
        ("omega-demo", "--base", Z2, "--shift", "1", "--zeta", "{0}"),
        ("quasicyclic", "2", "1", "4"),
    ]
    for argv in batteries:
        code, out, err = run(capsys, *argv)
        assert code == 0, (argv, err)
        assert out.startswith("cbswb-report/1\nverb: "), argv


def test_relative_sentences_read_the_signature_of_the_algebra(capsys):
    # a constant of the algebra is an operation, not a variable
    for argv in (
        ("cbs-check", "corpus/chain3.json", "--kind", "rel", "--sentence", "(meet x bot) = bot"),
        ("cbs-check", "corpus/boole2.json", "--kind", "rel", "--sentence", "(and x 0) = 0"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert f"kind: rel[{argv[-1]}]" in out and "holds: true" in out, argv
    # an operation the algebra lacks is refused
    assert run(capsys, "cbs-check", Z4, "--kind", "rel", "--sentence", "(* x y) = (* y x)") == (
        2, "", "error: unknown operation '*'\n")


def test_quotient_and_quasicyclic_bodies(capsys):
    code, out, _ = run(capsys, "quotient", Z4, "--by", "[[0,2],[1,3]]")
    assert code == 0 and "size: 2" in out

    code, out, _ = run(capsys, "quasicyclic", "3", "1", "3")
    assert code == 0
    assert "statement: z(3^3)/z(3^1) ~ z(3^2)" in out

    code, out, _ = run(capsys, "cbs-check", V4)
    assert code == 0 and "holds: true" in out

    code, out, _ = run(capsys, "cbs-complete", Z4)
    assert code == 0 and "verdict: certified" in out


# -- stability and formats -----------------------------------------------------


def test_byte_identical_reruns(capsys):
    for argv in (("fc", V4), ("con", Z4, "--format", "json"),
                 ("omega-demo", "--base", Z2, "--shift", "2", "--zeta", "{0}")):
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second, argv


def test_cached_parser_matches_fresh_parsers(capsys):
    # the append options must not carry values from one parse to the next
    argvs = [
        ("omega-demo", "--base", Z2, "--shift", "2", "--zeta", "{0}", "--truncate", "6"),
        ("omega-demo", "--base", Z2, "--shift", "2", "--zeta", "{0}"),
        ("presheaf-check", Z4, "--kind", "rel", "--sentence", "(+ x y) = (+ y x)"),
        ("presheaf-check", Z4),
    ]
    fresh = []
    for argv in argvs:
        build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    reused = [run(capsys, *argv) for argv in argvs]
    assert reused == fresh
    assert [code for code, _, _ in fresh] == [0, 0, 0, 0]
    assert "m: 6" in fresh[0][1] and "m: 6" not in fresh[1][1]


def test_every_long_option_is_set_by_a_test_or_a_benchmark_job():
    """Each long option of each verb is an argv entry of some test or of a
    job in bench/gen.py, so no option is left that nothing sets."""
    sources = [os.path.join(ROOT, "tests", fn) for fn in os.listdir(os.path.join(ROOT, "tests"))
               if fn.startswith("test_") and fn.endswith(".py")]
    sources.append(os.path.join(ROOT, "bench", "gen.py"))
    used = set()
    for path in sources:
        with open(path) as fh:
            used.update(node.value for node in ast.walk(ast.parse(fh.read()))
                        if isinstance(node, ast.Constant) and isinstance(node.value, str))
    (verbs,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {option for sub in verbs.choices.values() for action in sub._actions
               for option in action.option_strings if option.startswith("--")}
    assert sorted(options - used) == []


def test_json_format_parses_back(capsys):
    code, out, _ = run(capsys, "fc", V4, "--format", "json")
    assert code == 0
    report = parse_report(out)
    assert report.verb == "fc" and report.status == "pass"
    assert len(report.body["factor_congruences"]) == 5
    doc = json.loads(out)
    assert doc["schema"] == "cbswb-report/1"
    assert parse_report(render_report(report, "json")) == report


def test_timing_is_opt_in(capsys):
    _, plain, _ = run(capsys, "con", Z4)
    assert "timing" not in plain
    _, timed, _ = run(capsys, "con", Z4, "--timing")
    assert "timing:" in timed and "seconds:" in timed
    _, doc, _ = run(capsys, "con", Z4, "--timing", "--format", "json")
    assert "timing" in json.loads(doc)


def test_emit_dot(capsys, tmp_path):
    target = tmp_path / "z4.dot"
    code, out, _ = run(capsys, "con", Z4, "--emit-dot", str(target))
    assert code == 0
    dot = target.read_text()
    assert dot.startswith("digraph con {")
    assert "rankdir=BT;" in dot
    assert '[label="0|1|2|3"]' in dot and '[label="02|13"]' in dot
    assert dot.count("->") == 2  # covering edges of the three-element chain


# -- failure modes ---------------------------------------------------------------


def test_usage_and_resource_errors(capsys, tmp_path):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("not json")
    huge_int = tmp_path / "huge.json"
    huge_int.write_text("1" * 5000)  # over the integer-literal digit limit
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    not_text = tmp_path / "bytes.json"
    not_text.write_bytes(b"\xff\xfe{")
    cases = [
        ("con", "no-such-file.json"),
        ("con", str(bad_json)),
        ("con", str(huge_int)),
        ("con", str(deep)),
        ("con", str(not_text)),
        ("quotient", Z4, "--by", "[[0,1]]"),       # misses elements 2, 3
        ("quotient", Z4, "--by", "nonsense"),
        ("quasicyclic", "4", "1", "3"),            # composite modulus
        ("quasicyclic", "2", "3", "3"),
        ("omega-demo", "--base", Z2, "--shift", "0", "--zeta", "{}"),
        ("omega-demo", "--base", Z2, "--shift", "2", "--zeta", "{3}"),
        ("omega-demo", "--base", V4, "--shift", "2", "--zeta", "{0}"),
        ("church", "corpus/boole2.json", "--term", "(or x", "--zero", "0", "--one", "1"),
        ("church", "corpus/boole2.json", "--term", DEEP_TERM, "--zero", "0", "--one", "1"),
        ("cbs-check", "corpus/boole2.json", "--kind", "rel", "--sentence", f"{DEEP_TERM} = x"),
        ("presheaf-check", Z4, "--kind", "rel"),   # rel needs a sentence
        ("cbs-check", Z4, "--sentence", "(+ x y) = (+ y x)"),  # sentence needs rel
        ("iso", Z4, V4, "--max-size", "2"),
    ]
    for argv in cases:
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error: "), argv
        assert out == "", argv


def test_huge_period_literal_hits_the_budget(capsys):
    t0 = time.perf_counter()
    code, out, err = run(capsys, "omega-demo", "--base", Z2, "--shift", "2",
                         "--zeta", "prefix=;period=1000000000;residues={}")
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error: periodic set construction: period reached 1000000000")


def test_index_count_hits_the_budget(capsys):
    t0 = time.perf_counter()
    result = run(capsys, "omega-demo", "--base", Z2, "--shift", "1", "--zeta", "{0}",
                 "--indices", "1025")
    assert time.perf_counter() - t0 < 1.0
    assert result == (2, "", "error: omega run: indices reached 1025, "
                             "over the 1024-index budget\n")


def test_truncations_are_checked_before_the_run(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("omega run built for a truncation that is refused")

    monkeypatch.setattr(cli, "omega_cbs_run", refuse)
    budget = "error: truncation: m reached 200, over the 64-coordinate budget\n"
    assert run(capsys, "omega-demo", "--base", Z2, "--shift", "100", "--zeta", "{0,7,50}",
               "--indices", "512") == (2, "", budget)
    # every --truncate value is checked, not only the first
    assert run(capsys, "omega-demo", "--base", Z2, "--shift", "2", "--zeta", "{0}",
               "--truncate", "6", "--truncate", "3") == (
        2, "", "error: truncation must cover at least twice the shift\n")


def _write_algebra(path, A):
    path.write_text(json.dumps(render_algebra(A)))
    return str(path)


def test_congruence_count_budget_stops_large_lattices(capsys, tmp_path):
    # Con(semilat2^4) has 2,480 members and Con of an 8-element set with only
    # the identity has B_8 = 4,140; both stop at the 1,024-member budget
    semilat = _write_algebra(tmp_path / "semilat2_4.json",
                             power_algebra(corpus_algebra("semilat2"), 4))
    identity = _write_algebra(tmp_path / "id8.json",
                              FiniteAlgebra("id8", 8, [Operation("id", 1, tuple(range(8)))]))
    for argv in [("con", semilat, "--max-size", "16"), ("con", identity)]:
        t0 = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - t0 < 1.0, argv
        assert code == 2 and out == "", argv
        assert err == ("error: congruence enumeration: |Con(A)| reached 1025, "
                       "over the 1024-member budget\n"), argv


def test_max_size_reaches_the_isomorphism_searches_of_the_cbs_verbs(capsys, tmp_path):
    # z3 x z4 has 12 elements: --max-size 16 admits its Con(A), and must
    # admit the searches for A ~ A/theta past the 10-element default as well
    z12 = _write_algebra(tmp_path / "z3xz4.json",
                         direct_product(corpus_algebra("z3"), corpus_algebra("z4")))
    code, out, err = run(capsys, "cbs-check", z12, "--kind", "con", "--max-size", "16")
    assert (code, err) == (0, "")
    assert "holds: true" in out and "checked: 1" in out
    code, out, err = run(capsys, "cbs-complete", z12, "--max-size", "16")
    assert (code, err) == (0, "")
    assert "verdict: certified" in out
    # the default cap still refuses the carrier, at the Con(A) enumeration
    code, out, err = run(capsys, "cbs-complete", z12)
    assert code == 2 and out == "" and err.startswith("error: congruence enumeration")


def test_max_size_reaches_the_indecomposability_check_of_omega_demo(capsys, tmp_path):
    # the cyclic group of order 9 is indecomposable, and its FC(A) is read
    # under the job's carrier cap: the default 8 refuses it, 16 admits it
    z9 = _write_algebra(tmp_path / "z9.json", FiniteAlgebra(
        "z9", 9, [Operation("+", 2, tuple((a + b) % 9 for a in range(9) for b in range(9)))]))
    argv = ("omega-demo", "--base", z9, "--shift", "1", "--zeta", "{}")
    code, out, err = run(capsys, *argv, "--max-size", "16")
    assert (code, err) == (0, "") and "status: pass" in out
    assert run(capsys, *argv) == (
        2, "", "error: congruence enumeration: carrier reached 9, "
               "over the 8-element budget\n")


def test_emit_dot_draws_the_hasse_diagram_of_the_partition_lattice(tmp_path):
    # Con of a 7-element set with only the identity is the partition lattice
    # (B_7 = 877 members), where a partition with k blocks is covered exactly
    # by the C(k, 2) merges of two of its blocks
    identity = _write_algebra(tmp_path / "id7.json",
                              FiniteAlgebra("id7", 7, [Operation("id", 1, tuple(range(7)))]))
    dot = tmp_path / "con.dot"
    # the verb's handler, without rendering the 877^2-cell report
    args = build_parser().parse_args(["con", identity, "--emit-dot", str(dot)])
    status, body = cli._HANDLERS["con"](args)
    assert status == "pass" and body["size"] == 877 and body["dot"] == str(dot)
    stirling = [1]  # S(n, k) for k = 0..n, here n = 0
    for n in range(7):
        stirling = [k * s + r for k, (s, r) in enumerate(zip(stirling + [0], [0] + stirling))]
    labels, edges = {}, []
    for line in dot.read_text().splitlines()[2:-1]:
        node, rest = line.split(maxsplit=1)
        if rest.startswith("->"):
            edges.append((node, rest[3:-1]))
        else:
            labels[node] = frozenset(rest[8:-3].split("|"))
    assert len(labels) == 877
    assert len(edges) == sum(s * math.comb(k, 2) for k, s in enumerate(stirling)) == 4802
    for low, high in edges:
        merged = labels[low] - labels[high]
        assert len(merged) == 2 and labels[high] - labels[low] == {"".join(sorted("".join(merged)))}


def test_carrier_budget_messages_name_stage_and_count(capsys, tmp_path):
    z2_4 = _write_algebra(tmp_path / "z2_4.json", power_algebra(corpus_algebra("z2"), 4))
    assert run(capsys, "con", z2_4) == (
        2, "", "error: congruence enumeration: carrier reached 16, "
               "over the 8-element budget\n")
    assert run(capsys, "iso", z2_4, z2_4) == (
        2, "", "error: isomorphism search: carrier reached 16, "
               "over the 10-element budget\n")


def test_argparse_failures_map_to_exit_two(capsys):
    assert run(capsys, "frobnicate", Z4)[0] == 2
    assert run(capsys, "fc")[0] == 2
    assert run(capsys, "con", Z4, "--format", "yaml")[0] == 2
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "con", "--help")[0] == 0


def test_flag_validation(capsys):
    code, _, err = run(capsys, "con", Z4, "--eval-budget", "0")
    assert code == 2 and "positive" in err
    code, _, err = run(capsys, "con", Z4, "--max-size", "-3")
    assert code == 2 and "positive" in err


def test_eval_budget_reaches_the_engine(capsys, monkeypatch):
    monkeypatch.delenv("CBSWB_BUDGET", raising=False)
    argv = ("presheaf-check", Z4, "--kind", "rel", "--sentence", "(+ x y) = (+ y x)")
    code, _, err = run(capsys, *argv, "--eval-budget", "1")
    assert code == 2 and err == (
        "error: term evaluation: assignments reached 16, over the 1-assignment budget\n")
    # the budget lives on the job's operator kind, not in the process
    assert "CBSWB_BUDGET" not in os.environ
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == "" and "status: pass" in out


# -- report plumbing --------------------------------------------------------------


def _same_json(value, back):
    """value equals its JSON round trip back, with one type at every node."""
    if type(value) is not type(back):
        return False
    if isinstance(value, dict):
        # a key that is not a string comes back as one and fails here
        return list(value) == list(back) and all(_same_json(value[k], back[k]) for k in value)
    if isinstance(value, list):
        return len(value) == len(back) and all(map(_same_json, value, back))
    return value == back


def test_report_bodies_are_json_native(capsys, monkeypatch):
    # Report keeps a body as given, and the text renderer inlines lists but
    # not tuples, so every verb must build its body from JSON-native values
    bodies = []

    def keep(verb, status, body, timing=None):
        bodies.append((verb, body))
        return Report(verb, status, body, timing)

    monkeypatch.setattr(cli, "Report", keep)
    argvs = [
        ("church", "corpus/boole2.json", "--term", "(or (and z x) (and (not z) y))",
         "--zero", "0", "--one", "1"),
        ("quasicyclic", "2", "1", "4"),
        ("quasicyclic", "3", "2", "3"),
    ]
    for name in CORPUS_NAMES:
        path = f"corpus/{name}.json"
        argvs += [(verb, path) for verb in ("con", "fc", "center", "zcon")]
        argvs += [("quotient", path, "--by", json.dumps([list(range(corpus_algebra(name).size))])),
                  ("iso", path, path), ("iso", path, Z4)]
        for kind in ("con", "fc", "zcon"):
            argvs += [("presheaf-check", path, "--kind", kind, "--boolean"),
                      ("cbs-check", path, "--kind", kind),
                      ("cbs-complete", path, "--kind", kind)]
        argvs += [("omega-demo", "--base", path, "--shift", "1", "--zeta", "{0}")]
    for argv in argvs:
        main(list(argv))
    capsys.readouterr()
    assert {verb for verb, _ in bodies} == set(cli._HANDLERS)
    assert len(bodies) > len(argvs) * 9 // 10
    for verb, body in bodies:
        assert _same_json(body, json.loads(json.dumps(body))), verb
        assert json_text(body) == json.dumps(body, indent=2, sort_keys=True), verb


WRITER_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=300)
_text = st.text() | st.sampled_from(["", "\u00e9t\u00e9", "\"q\" \\ \n\t\x00\x1f", "\u2028\ud7ff", "\U0001f600"])
_float = st.floats() | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e300])
_scalar = st.none() | st.booleans() | st.integers() | _float | _text
_rows = (st.lists(st.integers()) | st.lists(st.booleans()) | st.lists(_text)
         | st.lists(st.none() | _text) | st.lists(st.integers() | st.booleans())
         | st.lists(_scalar))
_documents = st.recursive(
    _scalar | _rows,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_text, inner, max_size=4),
    max_leaves=24,
)


@WRITER_SETTINGS
@given(_documents)
@example({"a": [], "b": {}, "c": [[True, 1, False], [0, None], [float("nan"), "\u00ff"]]})
@example([[], {}, [[]], [{}]])
# the omega-demo report's shapes: a list of strings led by null, a dict of strings
@example({"thetas": [None, "a", "b"], "neg_odd": {"1": "x", "3": "y"}, "k": [None]})
def test_json_text_matches_the_stdlib_indented_writer(doc):
    assert json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)


# short cells, so that lists cross both the 72-column line and 36 items
_cell = st.sampled_from(["", "x", "a, b", 0, 7, -12, True, False, None])
_text_documents = st.recursive(
    _scalar | _rows | st.lists(_cell, max_size=48),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_text, inner, max_size=4),
    max_leaves=24,
)


@WRITER_SETTINGS
@given(_text_documents)
# 36 empty strings fit in 72 columns and 37 do not; a bound of 24 items
# would break the 30 onto 30 lines
@example([[""] * 30, [""] * 36, [""] * 37, [[""]] * 18, [[], [""] * 36], {}, [{}]])
def test_report_text_matches_the_cell_by_cell_writer(doc):
    lines = ["cbswb-report/1", "verb: x", "status: pass", *text_lines("doc", doc)]
    assert render_report(Report("x", "pass", {"doc": doc})) == "\n".join(lines) + "\n"


def test_cbs_complete_takes_no_theta_or_sigma(capsys):
    # the command line has no isomorphism f, and without one theta must be
    # the diagonal, which is the default
    for option in ("--theta", "--sigma"):
        code, out, err = run(capsys, "cbs-complete", Z4, option, "[[0],[1],[2],[3]]")
        assert code == 2 and out == "" and option in err
    code, out, _ = run(capsys, "cbs-complete", Z4, "--format", "json")
    body = json.loads(out)["body"]
    assert code == 0 and body["theta"] == body["sigma"] == [[0], [1], [2], [3]]


def test_report_container():
    with pytest.raises(FormatError):
        Report("con", "maybe", {})
    r = Report("x", "pass", {"a": None, "b": True, "c": [1, 2], "d": {}})
    text = render_report(r)
    assert "a: none\n" in text and "b: true\n" in text
    assert "c: [1, 2]\n" in text and "d: {}\n" in text
    assert render_report(Report("x", "pass", {})) == "cbswb-report/1\nverb: x\nstatus: pass\n"
    with pytest.raises(FormatError):
        render_report(r, "yaml")


def test_parse_report_rejections():
    with pytest.raises(FormatError):
        parse_report("not json")
    with pytest.raises(FormatError):
        parse_report(json.dumps({"schema": "other/9", "verb": "x", "status": "pass", "body": {}}))
    with pytest.raises(FormatError):
        parse_report(json.dumps({"schema": "cbswb-report/1", "verb": "x", "status": "pass"}))
    for body in ([], "text", None):
        with pytest.raises(FormatError, match="body must be an object"):
            parse_report(json.dumps({"schema": "cbswb-report/1", "verb": "x", "status": "pass",
                                     "body": body}))


def test_lattice_dot_unit():
    dot = lattice_dot(all_congruences(corpus_algebra("z2")))
    assert dot.startswith("digraph con {\n  rankdir=BT;\n") and dot.endswith("}\n")
    assert 'n0 [label="0|1"]' in dot
    assert 'n1 [label="01"]' in dot
    assert dot.count("->") == 1 and "n0 -> n1;" in dot
