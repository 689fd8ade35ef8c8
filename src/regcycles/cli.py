"""Command-line front end.

Subcommands map one-to-one onto the library layers: ``check`` and
``verify`` run the regular-cycle tests on a permutation group file,
``certify`` and ``scan`` drive the exact bound pipelines, ``build-action``
converts a matrix group (or combinatorial construction) into a group file
plus domain labels, and ``compare`` runs the sampled monotonicity check
between two compatible actions.

Each subcommand imports the layers it runs, when it runs: ``certify`` and
``scan`` import ``bounds`` (and with it ``numtheory``) and never numpy;
``check``, ``verify`` and ``compare`` import ``perm`` and ``regcycle``;
``build-action`` imports ``geometry`` and ``perm``.  Building the parser
imports nothing beyond the package root, which holds the element cap.
Handlers call through module attributes (``perm.parse_group_file``), so a
wrapper set on a module attribute sees every call.

Exit codes: 0 = success / certified / all-regular; 1 = computed but
negative (a witness exists, or the bound is inconclusive); 2 = usage or
input error, or a stdout closed before the output was written.  Every
exit 2 ends in one line on stderr, printed by `_fail`, or in none if
stderr is closed too.  ``--json`` emits a machine-readable report on
stdout (schema-versioned, deterministic for a fixed seed).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import DEFAULT_ELEMENT_CAP


def _load(path, parse, what=""):
    """parse(text) of the file at path, or None for no path; a ValueError
    naming the path if the file cannot be read or parsed."""
    if path is None:
        return None
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh.read())
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {what}{exc}") from exc


def _emit(args, data, text_lines):
    if args.json:
        print(json.dumps(data, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_check(args):
    from . import perm, regcycle

    G = _load(args.group, perm.parse_group_file)
    if args.element is None:
        verified = regcycle.verify_all_elements(G, cap=args.cap,
                                                max_witnesses=1)
        checked, witnesses = verified.checked, verified.witnesses
    else:
        try:
            g = perm.parse_cycles(args.element, G.degree)
        except ValueError as exc:
            raise ValueError(f"bad --element: {exc}") from exc
        if not G.contains(g, args.cap):
            raise ValueError(f"--element {args.element} is not in "
                             "the group")
        checked, witnesses = 1, (g,)
    # a witness of verify_all_elements has no regular cycle
    report = regcycle.fix_union_test(witnesses[0]) if witnesses else None
    if report is None or report.has_regular_cycle:
        _emit(args, {"schema": 1, "verdict": "all-regular",
                     "checked": checked},
              [f"all {checked} element(s) have a regular cycle"])
        return 0
    g = witnesses[0]
    data = report.to_json_dict()
    data["element"] = perm.cycle_string(g.images)
    _emit(args, data,
          [f"witness without a regular cycle: {data['element']}",
           f"order {report.order}, S(g) = {report.s_value}"])
    return 1


def _cmd_verify(args):
    from . import perm, regcycle

    G = _load(args.group, perm.parse_group_file)
    report = regcycle.verify_all_elements(
        G, cap=args.cap, square_free_only=args.square_free_only)
    data = report.to_json_dict(group_name=args.group)
    lines = [f"group order {report.group_order}, degree {G.degree}",
             f"checked {report.checked} element(s): {report.verdict}"]
    lines += [f"  witness: {w}" for w in data["witness_cycles"]]
    _emit(args, data, lines)
    return 0 if report.all_regular else 1


def _cmd_certify(args):
    from . import bounds

    tables = _load(args.tables, bounds.load_external_tables,
                   "bad external tables: ")
    if args.case == "triality":
        report = bounds.triality_bound(args.q)
    else:
        if args.family is None or args.n is None:
            raise ValueError("--family and --n are required for "
                             f"case {args.case}")
        gid = bounds.GroupId(args.family, args.n, args.q)
        report = bounds.certify_case(args.case, gid, tables)
    lines = [f"{report.group} case {report.case}: {report.verdict}"]
    if not report.delegated:
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
    from . import bounds

    tables = _load(args.tables, bounds.load_external_tables,
                   "bad external tables: ")
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
    from . import geometry

    if args.builtin:
        space, gens = geometry.builtin_matrix_group(args.builtin)
    elif args.matrix:
        space, gens = _load(args.matrix, geometry.parse_matrix_file)
    else:
        raise ValueError(f"--type {args.type} needs --matrix or --builtin")
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
        return gens, geometry.quadratic_forms_polarizing(space, args.epsilon)
    # argparse's choices leave only the two pair types
    leq, perp = geometry.pair_domains(space, args.k)
    return gens, (leq if kind == "pairs-le" else perp)


def _cmd_build_action(args):
    from . import geometry, perm

    if args.type == "ksets":
        if args.m is None:
            raise ValueError("--type ksets needs --m")
        G = geometry.k_set_action(args.m, args.k)
        labels = geometry.k_set_labels(args.m, args.k)
    elif args.type == "product":
        if args.m is None or args.r is None:
            raise ValueError("--type product needs --m and --r")
        # Sym(m) on k-sets; k = 1 keeps symmetric_group's generator order
        base = (perm.symmetric_group(args.m) if args.k == 1
                else geometry.k_set_action(args.m, args.k))
        G = geometry.product_action(base, args.r)
        labels = geometry.product_labels(
            geometry.k_set_labels(args.m, args.k), args.r)
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
        raise ValueError(f"cannot write output: {exc.strerror}") from exc
    print(f"wrote {args.out}: degree {G.degree}, "
          f"{len(G.images)} generator(s); labels in {labels_path}")
    return 0


def _cmd_compare(args):
    from . import perm, regcycle

    G1 = _load(args.action1, perm.parse_group_file)
    G2 = _load(args.action2, perm.parse_group_file)
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
        self.exit(_fail(f"{self.prog}: error: {message}"))


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
    p.add_argument("--family")  # GroupId refuses an unknown one
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
    p.add_argument("--action1", required=True)
    p.add_argument("--action2", required=True)
    p.add_argument("--samples", type=int, default=10**4)
    p.add_argument("--seed", type=int, default=1729)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_compare)
    return parser


def _fail(line: str) -> int:
    """Print the one line of an exit 2 on stderr and return 2.  A stderr
    that cannot be written (closed with stdout: ``2>&1 | true``) is pointed
    at devnull, or the flush at exit raises, and the run ends silently."""
    try:
        print(line, file=sys.stderr, flush=True)
    except OSError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())
    return 2


def main(argv=None) -> int:
    # set before any handler imports numpy: OpenBLAS starts its thread
    # pool when it loads, about 70 ms of a fresh `import numpy` on two
    # cores, and no product here is large enough to use it.  A setting of
    # the user's own wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
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
        return _fail("error: stdout was closed before the output was written")
    # ValueError: malformed input, GroupFileError included; ArithmeticError:
    # every cap (an OverflowError, CapExceeded included) and an unsplit
    # factorization; MemoryError: an array that no cap bounds
    except (ValueError, ArithmeticError, MemoryError) as exc:
        return _fail(f"error: {str(exc) or type(exc).__name__}")


if __name__ == "__main__":
    sys.exit(main())
