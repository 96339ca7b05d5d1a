"""Command-line workbench.

One verb per module operation; the default text output is deterministic
and diffable, --format json gives the schema-versioned machine form.
Exit status: 0 pass, 1 refuted property (report on stdout carries the
witnesses), 2 usage or resource error (message on stderr).
"""

import argparse
import functools
import json
import sys
import time

from .algebra import (
    DEFAULT_EVAL_BUDGET,
    DEFAULT_ISO_CAP,
    iso_search,
    parse_algebra,
    parse_sentence,
    parse_term,
    quotient_algebra,
    render_algebra,
)
from .cbs import (
    OperatorKind,
    boolean_sublattice_check,
    cbs_complete_check,
    cbs_property_check,
    operator_eval,
    presheaf_check,
)
from .congruence import DEFAULT_CON_CAP, Congruence, all_congruences
from .errors import CbswbError, FormatError
from .omega import (check_truncation, omega_cbs_run, omega_validate, quasicyclic_suite,
                    truncate_validate)
from .pset import PeriodicSet
from .report import Report, lattice_dot, render_report
from .structure import church_centers, fc_report, z_con_report


def _load(path: str):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (ValueError, RecursionError) as e:
        raise FormatError(f"{path}: not valid JSON ({e})")
    return parse_algebra(doc)


def _blocks_literal(A, text: str) -> Congruence:
    try:
        blocks = json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(f"congruence literal is not valid JSON ({e})")
    if not isinstance(blocks, list) or not all(isinstance(b, list) for b in blocks):
        raise FormatError("congruence literal must look like [[0,2],[1,3]]")
    return Congruence.from_blocks(A, blocks)


def _kind(args, A) -> OperatorKind:
    """The job's operator kind, its sentences read against A's signature."""
    sentences = tuple(parse_sentence(s, A.signature()) for s in args.sentence or ())
    return OperatorKind(args.kind, sentences, args.eval_budget)


def _max_size(args, default):
    return args.max_size if args.max_size is not None else default


# ---------------------------------------------------------------------------
# verb handlers: each returns (status, body)


def _cmd_con(args):
    A = _load(args.file)
    L = all_congruences(A, max_size=_max_size(args, DEFAULT_CON_CAP))
    body = L.to_report()
    if args.emit_dot:
        with open(args.emit_dot, "w") as fh:
            fh.write(lattice_dot(L))
        body["dot"] = args.emit_dot
    return "pass", body


def _cmd_fc(args):
    A = _load(args.file)
    return "pass", fc_report(all_congruences(A, max_size=_max_size(args, DEFAULT_CON_CAP)))


def _cmd_center(args):
    A = _load(args.file)
    return "pass", z_con_report(A, max_size=_max_size(args, DEFAULT_CON_CAP))


def _cmd_zcon(args):
    A = _load(args.file)
    ks = operator_eval(A, OperatorKind("zcon"), max_size=_max_size(args, DEFAULT_CON_CAP))
    return "pass", {
        "algebra": A.name,
        "elements": [c.to_blocks_list() for c in ks],
        "boolean": boolean_sublattice_check(A, ks),
    }


def _cmd_quotient(args):
    A = _load(args.file)
    theta = _blocks_literal(A, args.by)
    Q = quotient_algebra(A, theta)
    return "pass", {
        "algebra": render_algebra(Q.algebra),
        "projection": list(Q.projection.mapping),
        "blocks": theta.to_blocks_list(),
    }


def _cmd_iso(args):
    A = _load(args.file)
    B = _load(args.file2)
    found = iso_search(A, B, max_size=_max_size(args, DEFAULT_ISO_CAP))
    if found:
        return "pass", {
            "source": A.name,
            "target": B.name,
            "found": True,
            "mapping": list(found.mapping),
        }
    return "refuted", {
        "source": A.name,
        "target": B.name,
        "found": False,
        "note": "no isomorphism",
    }


def _cmd_church(args):
    A = _load(args.file)
    t = parse_term(args.term, A.signature())
    return "pass", church_centers(A, t, args.zero, args.one, budget=args.eval_budget)


def _cmd_presheaf(args):
    A = _load(args.file)
    body = presheaf_check(A, _kind(args, A), boolean=args.boolean,
                          max_size=_max_size(args, DEFAULT_CON_CAP))
    return ("pass" if body["ok"] else "refuted"), body


def _cmd_cbs_check(args):
    A = _load(args.file)
    body = cbs_property_check(A, _kind(args, A), max_size=_max_size(args, DEFAULT_CON_CAP))
    return ("pass" if body["holds"] else "refuted"), body


def _cmd_cbs_complete(args):
    A = _load(args.file)
    body = cbs_complete_check(A, kind=_kind(args, A), max_size=_max_size(args, DEFAULT_CON_CAP))
    # the one finite case, theta = sigma = the diagonal, is always certified
    return "pass", body


def _cmd_omega(args):
    A = _load(args.base)
    zeta = PeriodicSet.parse(args.zeta)
    truncations = args.truncate or [2 * args.shift]
    for m in truncations:
        check_truncation(args.shift, m)
    run = omega_cbs_run(A, args.shift, zeta, indices=args.indices,
                        max_size=_max_size(args, DEFAULT_CON_CAP))
    violations = omega_validate(run)
    body = run.to_report()
    body["validation_violations"] = violations
    body["truncations"] = [truncate_validate(run, m) for m in truncations]
    ok = not violations and all(v["ok"] for v in body["truncations"])
    return ("pass" if ok else "refuted"), body


def _cmd_quasicyclic(args):
    body = quasicyclic_suite(args.p, args.n, args.m)
    return ("pass" if body["ok"] else "refuted"), body


_HANDLERS = {
    "con": _cmd_con,
    "fc": _cmd_fc,
    "center": _cmd_center,
    "zcon": _cmd_zcon,
    "quotient": _cmd_quotient,
    "iso": _cmd_iso,
    "church": _cmd_church,
    "presheaf-check": _cmd_presheaf,
    "cbs-check": _cmd_cbs_check,
    "cbs-complete": _cmd_cbs_complete,
    "omega-demo": _cmd_omega,
    "quasicyclic": _cmd_quasicyclic,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--timing", action="store_true",
                        help="attach wall-clock timing (output stops being byte-stable)")
    common.add_argument("--max-size", type=int, default=None, metavar="N",
                        help="carrier-size budget for enumeration or iso search")
    common.add_argument("--eval-budget", type=int, default=DEFAULT_EVAL_BUDGET, metavar="N",
                        help="term-evaluation budget for kind rel and church (default 10^7)")

    p = argparse.ArgumentParser(
        prog="cbswb",
        description="congruence-lattice and CBS workbench for finite algebras",
    )
    sub = p.add_subparsers(dest="verb", required=True, metavar="verb")

    def add(verb, help, **kw):
        return sub.add_parser(verb, parents=[common], help=help, **kw)

    sp = add("con", "congruence lattice of an algebra")
    sp.add_argument("file")
    sp.add_argument("--emit-dot", metavar="PATH", help="write the lattice in dot format")
    sp = add("fc", "factor congruences, complements and the Boolean check")
    sp.add_argument("file")
    sp = add("center", "centre of the congruence lattice with factor-pair cross-checks")
    sp.add_argument("file")
    sp = add("zcon", "central congruence operator and its Boolean verdict")
    sp.add_argument("file")
    sp = add("quotient", "quotient by a congruence literal")
    sp.add_argument("file")
    sp.add_argument("--by", required=True, metavar="BLOCKS", help="e.g. [[0,2],[1,3]]")
    sp = add("iso", "search for an isomorphism between two algebras")
    sp.add_argument("file")
    sp.add_argument("file2")
    sp = add("church", "central elements through a conditional term")
    sp.add_argument("file")
    sp.add_argument("--term", required=True, help="s-expression in z, x, y")
    sp.add_argument("--zero", required=True, type=int)
    sp.add_argument("--one", required=True, type=int)

    for verb, help in (
        ("presheaf-check", "operator axioms on an algebra and its quotients"),
        ("cbs-check", "downward-closure CBS property over an operator"),
        ("cbs-complete", "CBS-completeness certificate at theta = sigma = the diagonal"),
    ):
        sp = add(verb, help)
        sp.add_argument("file")
        sp.add_argument("--kind", choices=("con", "fc", "zcon", "rel"),
                        default="fc" if verb != "cbs-check" else "con")
        sp.add_argument("--sentence", action="append", metavar="EQN",
                        help="for kind rel; e.g. '(+ x y) = (+ y x)'")
        if verb == "presheaf-check":
            sp.add_argument("--boolean", action="store_true",
                            help="also require a Boolean operator")

    sp = add("omega-demo", "symbolic CBS run over a countable power")
    sp.add_argument("--base", required=True, metavar="FILE")
    sp.add_argument("--shift", required=True, type=int, metavar="K")
    sp.add_argument("--zeta", required=True, metavar="SET",
                    help="finite literal {0,3} or prefix=..;period=..;residues={..}")
    sp.add_argument("--indices", type=int, default=10)
    sp.add_argument("--truncate", action="append", type=int, metavar="M",
                    help="truncation sizes to validate (default 2k)")

    sp = add("quasicyclic", "pseudo-simple pattern on a quasi-cyclic truncation")
    sp.add_argument("p", type=int)
    sp.add_argument("n", type=int)
    sp.add_argument("m", type=int)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 2
        return 0 if code == 0 else 2
    if args.eval_budget <= 0:
        print("error: --eval-budget must be positive", file=sys.stderr)
        return 2
    if args.max_size is not None and args.max_size <= 0:
        print("error: --max-size must be positive", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    try:
        status, body = _HANDLERS[args.verb](args)
    except (CbswbError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    timing = {"seconds": round(time.perf_counter() - t0, 3)} if args.timing else None
    sys.stdout.write(render_report(Report(args.verb, status, body, timing), args.format))
    return 0 if status == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
