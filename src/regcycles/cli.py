"""Command-line front end.

Subcommands map one-to-one onto the library layers: ``check`` and
``verify`` run the regular-cycle tests on a permutation group file,
``certify`` and ``scan`` drive the exact bound pipelines, ``build-action``
converts a matrix group (or combinatorial construction) into a group file
plus domain labels, and ``compare`` runs the sampled monotonicity check
between two compatible actions.

Exit codes: 0 = success / certified / all-regular; 1 = computed but
negative (a witness exists, or the bound is inconclusive); 2 = usage or
input error, or a stdout closed before the output was written.  Every
exit 2 ends in one line on stderr.  ``--json`` emits a machine-readable
report on stdout (schema-versioned, deterministic for a fixed seed).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import bounds, geometry, perm, regcycle
from .perm import DEFAULT_ELEMENT_CAP, CapExceeded, GroupFileError
from .geometry import MatrixFileError


class InputError(Exception):
    """User-facing problem with arguments or input files (exit code 2)."""


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from exc


def _load_group(path) -> perm.PermGroup:
    try:
        return perm.parse_group_file(_read(path))
    except GroupFileError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _load_tables(path):
    if path is None:
        return None
    try:
        return bounds.load_external_tables(_read(path))
    except ValueError as exc:
        raise InputError(f"{path}: bad external tables: {exc}") from exc


def _emit(args, data, text_lines):
    if args.json:
        print(json.dumps(data, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_check(args):
    G = _load_group(args.group)
    if args.element is None:
        verified = regcycle.verify_all_elements(G, cap=args.cap,
                                                max_witnesses=1)
        checked, witnesses = verified.checked, verified.witnesses
    else:
        try:
            g = perm.parse_cycles(args.element, G.degree)
        except ValueError as exc:
            raise InputError(f"bad --element: {exc}") from exc
        if not G.contains(g, args.cap):
            raise InputError(f"--element {args.element} is not in "
                             "the group")
        checked = 1
        witnesses = () if perm.has_regular_cycle_direct(g) else (g,)
    if not witnesses:
        _emit(args, {"schema": 1, "verdict": "all-regular",
                     "checked": checked},
              [f"all {checked} element(s) have a regular cycle"])
        return 0
    g = witnesses[0]
    report = regcycle.fix_union_test(g)
    data = report.to_json_dict()
    data["element"] = perm.cycle_string(g.images)
    _emit(args, data,
          [f"witness without a regular cycle: {data['element']}",
           f"order {report.order}, S(g) = {report.s_value}"])
    return 1


def _cmd_verify(args):
    G = _load_group(args.group)
    report = regcycle.verify_all_elements(
        G, cap=args.cap, square_free_only=args.square_free_only)
    lines = [f"group order {report.group_order}, degree {G.degree}",
             f"checked {report.checked} element(s): {report.verdict}"]
    for w in report.witnesses:
        lines.append(f"  witness: {perm.cycle_string(w.images)}")
    _emit(args, report.to_json_dict(group_name=args.group), lines)
    return 0 if report.all_regular else 1


def _cmd_certify(args):
    tables = _load_tables(args.tables)
    if args.case == "triality":
        report = bounds.triality_bound(args.q)
    else:
        if args.family is None or args.n is None:
            raise InputError("--family and --n are required for "
                             f"case {args.case}")
        gid = bounds.GroupId(args.family, args.n, args.q)
        report = bounds.certify_case(args.case, gid, tables)
    lines = [f"{report.group} case {report.case}: {report.verdict}"]
    if report.verdict != "delegated-external":
        lines.append(f"  S1 <= {float(report.s1_bound):.6f}, "
                     f"S2 <= {float(report.s2_bound):.6f}, "
                     f"total {float(report.total):.6f}")
        for t in report.s1_terms + report.s2_terms:
            lines.append(f"  term: {t.label} = {float(t.value):.6g}")
        for r in report.refinements:
            lines.append(f"  refinement: {r}")
    else:
        lines.append(f"  {report.note}")
    _emit(args, report.to_json_dict(), lines)
    return 0 if report.verdict == "certified" else 1


def _cmd_scan(args):
    tables = _load_tables(args.tables)
    if args.theorem == "small-dim":
        flagged = bounds.small_dim_scan()
    elif args.theorem == "nonsubspace":
        flagged = bounds.nonsubspace_scan(tables)
    else:
        flagged = bounds.dagger_scan(tables)
    for gid in flagged:
        entry = {"schema": 1, "family": gid.family, "n": gid.n, "q": gid.q}
        try:
            entry["a_nq"] = round(bounds.a_nq(gid), 6)
        except ValueError:
            entry["a_nq"] = None  # outside the a(n,q) machinery
        if args.json:
            print(json.dumps(entry, sort_keys=True))
        else:
            print(f"{gid}  a(n,q)={entry['a_nq']}")
    if not args.json:
        print(f"{len(flagged)} flagged")
    return 0


def _matrix_domain(args):
    if args.builtin:
        space, gens = geometry.builtin_matrix_group(args.builtin)
    elif args.matrix:
        try:
            space, gens = geometry.parse_matrix_file(_read(args.matrix))
        except MatrixFileError as exc:
            raise InputError(f"{args.matrix}: {exc}") from exc
    else:
        raise InputError(f"--type {args.type} needs --matrix or --builtin")
    kind = args.type
    if kind == "singular-points":
        return gens, geometry.singular_points(space)
    if kind == "ns1":
        dom = geometry.nondegenerate_points(space)
        if isinstance(dom, tuple):
            dom = dom[0] if args.orbit == "plus" else dom[1]
        return gens, dom
    if kind == "aniso2":
        return gens, geometry.anisotropic_2_subspaces(space)
    if kind == "maxts":
        return gens, geometry.maximal_totally_singular(space)
    if kind == "forms":
        if space.kind != "symplectic":
            raise InputError("--type forms needs a symplectic matrix group")
        return gens, geometry.quadratic_forms_polarizing(space, args.epsilon)
    if kind in ("pairs-le", "pairs-perp"):
        leq, perp = geometry.pair_domains(space, args.k)
        return gens, (leq if kind == "pairs-le" else perp)
    raise InputError(f"unknown action type {kind!r}")


def _cmd_build_action(args):
    if args.type == "ksets":
        if args.m is None or args.k is None:
            raise InputError("--type ksets needs --m and --k")
        G = geometry.k_set_action(args.m, args.k)
        labels = geometry.k_set_labels(args.m, args.k)
    elif args.type == "product":
        if args.m is None or args.r is None:
            raise InputError("--type product needs --m and --r")
        G = geometry.product_action(perm.symmetric_group(args.m), args.r)
        labels = geometry.product_labels(range(1, args.m + 1), args.r)
    else:
        gens, domain = _matrix_domain(args)
        G = geometry.perm_image(gens, domain)
        labels = domain.label_lines()
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(perm.emit_group_file(G))
        labels_path = args.labels or args.out + ".labels"
        with open(labels_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(labels) + "\n")
    except OSError as exc:
        raise InputError(f"cannot write output: {exc.strerror}") from exc
    print(f"wrote {args.out}: degree {G.degree}, "
          f"{len(G.images)} generator(s); labels in {labels_path}")
    return 0


def _cmd_compare(args):
    G1 = _load_group(args.action1)
    G2 = _load_group(args.action2)
    ngens = len(G1.images)
    if len(G2.images) != ngens:
        raise InputError("the two actions list different numbers of "
                         "generators and cannot be compared word-by-word")
    if args.group is not None:
        try:
            _, gens = geometry.parse_matrix_file(_read(args.group))
        except MatrixFileError as exc:
            raise InputError(f"{args.group}: {exc}") from exc
        if len(gens) != ngens:
            raise InputError("generator count of --group does not match "
                             "the two actions")
    report = regcycle.compare_actions_monotonic(
        G1, G2, samples=args.samples, seed=args.seed)
    lines = [f"{args.samples} sampled words: "
             + ("monotone" if report.monotone else "VIOLATIONS")]
    lines += [f"  violating word: {w}" for w in report.violations]
    _emit(args, report.to_json_dict(), lines)
    return 0 if report.monotone else 1


# ---------------------------------------------------------------------------
# argument parsing

class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors end in one line."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def positive_int(text):
    """An integer >= 1 (named in argparse's message for a non-integer)."""
    if (value := int(text)) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


@functools.cache
def _build_parser():
    """The argument parser, built on first use and reused by every
    `main` call (parsing leaves it unchanged)."""
    parser = _Parser(
        prog="regcycles",
        description="Regular-cycle detection and certification for "
                    "permutation and classical group actions.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("check", help="regular-cycle test for one element "
                                     "or every element of a group file")
    p.add_argument("--group", required=True)
    p.add_argument("--element", help="cycle notation, e.g. '(1 2 3)(4 5)'")
    p.add_argument("--cap", type=positive_int, default=DEFAULT_ELEMENT_CAP)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("verify", help="bulk verification of a group file")
    p.add_argument("--group", required=True)
    p.add_argument("--square-free-only", action="store_true",
                   help="check only square-free-order elements (the "
                        "all-regular verdict is unchanged)")
    p.add_argument("--cap", type=positive_int, default=DEFAULT_ELEMENT_CAP)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("certify", help="exact bound certification")
    p.add_argument("--case", required=True,
                   choices=["i", "ii", "iii", "iv", "vi", "triality"])
    p.add_argument("--family", choices=list(bounds.FAMILIES))
    p.add_argument("--n", type=int)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--tables", help="external tables JSON file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("scan", help="exception scans")
    p.add_argument("--theorem", required=True,
                   choices=["small-dim", "nonsubspace", "dagger"])
    p.add_argument("--tables", help="external tables JSON file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("build-action",
                       help="emit a permutation group file (plus labels) "
                            "for a library action")
    p.add_argument("--type", required=True,
                   choices=["ksets", "product", "singular-points", "ns1",
                            "aniso2", "maxts", "forms", "pairs-le",
                            "pairs-perp"])
    p.add_argument("--m", type=int)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--r", type=int)
    p.add_argument("--matrix", help="matrix-generator file")
    p.add_argument("--builtin", help="shipped matrix group "
                                     "(sp6_2, o8p_2, o7_3, su5_2)")
    p.add_argument("--orbit", choices=["plus", "minus"], default="plus",
                   help="which orbit of non-degenerate points (odd q)")
    p.add_argument("--epsilon", choices=["+", "-"], default="+",
                   help="form type for --type forms")
    p.add_argument("--out", required=True)
    p.add_argument("--labels", help="labels output path "
                                    "(default: OUT.labels)")
    p.set_defaults(func=_cmd_build_action)

    p = sub.add_parser("compare",
                       help="sampled regular-cycle monotonicity between "
                            "two actions with matching generator lists")
    p.add_argument("--group", help="matrix file both actions came from "
                                   "(generator-count sanity check)")
    p.add_argument("--action1", required=True)
    p.add_argument("--action2", required=True)
    p.add_argument("--samples", type=int, default=10**4)
    p.add_argument("--seed", type=int, default=1729)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:
        # stdout was closed: point it at devnull, or the flush at exit raises
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the output was written",
              file=sys.stderr)
        return 2
    # every library input error: ValueError covers GroupFileError,
    # MatrixFileError and DomainNotPreservedError, ArithmeticError the
    # OverflowError of a cap; MemoryError an array that no cap bounds
    except (InputError, ValueError, ArithmeticError, CapExceeded,
            MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
