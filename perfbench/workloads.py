"""The three workloads: their inputs, items and output oracles.

Each workload's `setup(seed, workdir)` makes every input from the seed,
writes the group files the program reads, and returns the list of items.
An item is one in-process `regcycles.cli.main(argv)` call, or one call of
public library functions where the CLI has no command.  Its `check` looks
at the exit code and the captured standard output after the timed loop and
returns a message if the output is wrong.  The oracles come from closed
forms and tables kept here, not from the code under test.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import certify_pool


class Item:
    """One unit of work: `run()` returns an exit code.

    An item that raises, prints a traceback or returns an exit code outside
    `codes` has failed.  Every failure is also a wrong output, except the
    exception type recorded for the item in `raises` (a certify pool entry
    that raised when the pool was recorded).
    """

    __slots__ = ("label", "run", "codes", "check", "raises")

    def __init__(self, label, run, codes, check, raises=None):
        self.label = label
        self.run = run
        self.codes = codes  # exit codes that are not failures
        self.check = check  # (code, stdout) -> error message or None
        self.raises = raises  # the one tolerated exception type name


def _cli_item(label, argv, codes, check, raises=None):
    from regcycles import cli

    # cli.main is looked up at call time, so a traced run sees its wrapper
    return Item(label, lambda: cli.main(argv), codes, check, raises)


def _json(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# group files

def _write_group(path: Path, degree: int, gens) -> str:
    """Write 1-based cycle notation for 0-based image lists."""
    lines = [f"degree {degree}"]
    for images in gens:
        seen = [False] * degree
        cycles = []
        for start in range(degree):
            if seen[start] or images[start] == start:
                continue
            cyc, x = [], start
            while not seen[x]:
                seen[x] = True
                cyc.append(x + 1)
                x = images[x]
            cycles.append("(" + " ".join(map(str, cyc)) + ")")
        lines.append("".join(cycles) or "id")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def _word(gens, word):
    """Image list of the product: apply gens[word[0]] first."""
    images = list(range(len(gens[0])))
    for i in word:
        images = [gens[i][x] for x in images]
    return images


def _relabel(gens, rng: random.Random):
    """Conjugate the generators by a random relabelling of the points."""
    degree = len(gens[0])
    sigma = list(range(degree))
    rng.shuffle(sigma)
    out = []
    for images in gens:
        new = [0] * degree
        for x, y in enumerate(images):
            new[sigma[x]] = sigma[y]
        out.append(new)
    return out


def _file_degree(path: str) -> int:
    with open(path, encoding="utf-8") as fh:
        return int(fh.readline().split()[1])


# ---------------------------------------------------------------------------
# verify: Sp6(2) on 63 points, then a batch of small groups

SP6_ORDER = 1451520
# Two words in the eight bundled transvections of Sp6(2) (orders 5 and 15)
# that generate the whole group: a user's two-generator file, and a third
# of the enumeration cost of all eight.  The order oracle checks it.
SP6_WORDS = ([1, 4, 1, 7, 7, 7, 6, 3, 1, 7], [6, 6, 0, 7, 4, 3, 1, 5])
CHECK_MAX_ORDER = 1000  # `check` builds one Permutation per element
# The small-group batch runs twice, in two seeded orders.  Its costliest
# items are a handful of groups with sparse costs (PSL2(p) for p >= 29,
# Sym(8)); with each item drawn twice, the item with 10 items beyond it
# falls in a pair of near-equal costs instead of on a gap between two
# groups, so item_tail_ms does not jump from run to run.
BATCH_ROUNDS = 2


def _cycle(m):
    return [(x + 1) % m for x in range(m)]


def _small_groups():
    """(name, degree, generators, order, all_regular) from closed forms.

    Sym(m) has (1 2)(3 4 5), of order 6 with no 6-cycle, once m >= 5;
    Alt(m) has (1 2)(3 4)(5 6 7) once m >= 7.  Cyclic and dihedral groups
    in their natural actions, and PSL2(p) on the projective line (every
    non-identity element has all non-fixed cycles of one length), have a
    regular cycle in every element.
    """
    for m in range(2, 51):
        yield f"cyclic-{m}", m, [_cycle(m)], m, True
    for m in range(3, 51):
        yield (f"dihedral-{m}", m, [_cycle(m), [(-x) % m for x in range(m)]],
               2 * m, True)
    for m in range(3, 9):
        swap = [1, 0] + list(range(2, m))
        yield f"sym-{m}", m, [swap, _cycle(m)], math.factorial(m), m < 5
    for m in range(4, 9):
        three = [1, 2, 0] + list(range(3, m))
        long = _cycle(m) if m % 2 else [0] + list(range(2, m)) + [1]
        yield (f"alt-{m}", m, [three, long], math.factorial(m) // 2, m < 7)
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        inf = p
        shift = [(x + 1) % p for x in range(p)] + [inf]
        inv = [inf if x == 0 else (-pow(x, p - 2, p)) % p for x in range(p)]
        yield (f"psl2-{p}", p + 1, [shift, inv + [0]], p * (p * p - 1) // 2,
               True)


def _verify_checks(order, all_regular, square_free_only):
    verdict = "all-regular" if all_regular else "failures"

    def check(code, out):
        data = _json(out)
        if data["group_order"] != order:
            return f"order {data['group_order']} != {order}"
        if data["verdict"] != verdict or code != (0 if all_regular else 1):
            return f"verdict {data['verdict']} (exit {code}) != {verdict}"
        if square_free_only:
            if not 0 < data["checked"] <= order:
                return f"square-free pass checked {data['checked']}"
        elif data["checked"] != order:
            return f"checked {data['checked']} != {order}"
        return None

    return check


def _check_checks(order, all_regular):
    def check(code, out):
        data = _json(out)
        if all_regular:
            if code != 0 or data.get("verdict") != "all-regular":
                return f"check found a witness (exit {code})"
            if data["checked"] != order:
                return f"check covered {data['checked']} != {order}"
        elif code != 1 or data.get("has_regular_cycle") is not False:
            return f"check found no witness (exit {code})"
        return None

    return check


def setup_verify(seed: int, workdir: Path):
    from regcycles import geometry

    rng = random.Random(seed)
    space, gens = geometry.builtin_matrix_group("sp6_2")
    G = geometry.perm_image(gens, geometry.singular_points(space))
    transvections = [g.images for g in G.generators]
    sp6 = _write_group(workdir / "sp6_2-points.grp", G.degree,
                       _relabel([_word(transvections, w) for w in SP6_WORDS],
                                rng))

    items = [_cli_item("verify sp6_2-points",
                       ["verify", "--json", "--group", sp6], (0, 1),
                       _verify_checks(SP6_ORDER, True, False))]
    batch = []
    for name, degree, gens, order, regular in _small_groups():
        path = _write_group(workdir / f"{name}.grp", degree,
                            _relabel(gens, rng))
        group = [
            _cli_item(f"verify {name}", ["verify", "--json", "--group", path],
                      (0, 1), _verify_checks(order, regular, False)),
            _cli_item(f"verify --square-free-only {name}",
                      ["verify", "--square-free-only", "--json",
                       "--group", path],
                      (0, 1), _verify_checks(order, regular, True)),
        ]
        if order <= CHECK_MAX_ORDER:
            group.append(_cli_item(f"check {name}",
                                   ["check", "--json", "--group", path],
                                   (0, 1), _check_checks(order, regular)))
        batch.append(group)
    for _ in range(BATCH_ROUNDS):
        rng.shuffle(batch)
        items += [item for group in batch for item in group]
    return items


# ---------------------------------------------------------------------------
# build-compare: every CLI action type, then sampled comparisons

# (builtin, --type, extra arguments, degree from the closed form).  Left out
# so that a pass stays near 10 s: O7(3) aniso2 (22,113 labels, 20-35 s),
# O7(3) maxts (about 30 s), Sp6(2) pairs with k = 2 (about 90 s), Sp6(2)
# pairs-perp with k = 1 (the same pair_domains call as pairs-le) and O8+(2)
# maxts (5-10 s; maxts still runs on Sp6(2) and SU5(2)).
ACTIONS = [
    ("sp6_2", "singular-points", [], 63),
    ("sp6_2", "maxts", [], 135),
    ("sp6_2", "forms", ["--epsilon", "+"], 36),
    ("sp6_2", "forms", ["--epsilon", "-"], 28),
    ("sp6_2", "pairs-le", ["--k", "1"], 1953),
    ("o8p_2", "singular-points", [], 135),
    ("o8p_2", "ns1", [], 120),
    ("o8p_2", "aniso2", [], 1120),
    ("su5_2", "singular-points", [], 165),
    ("su5_2", "ns1", [], 176),
    ("su5_2", "maxts", [], 297),
    ("o7_3", "singular-points", [], 364),
    ("o7_3", "ns1", ["--orbit", "plus"], 378),
    ("o7_3", "ns1", ["--orbit", "minus"], 351),
]
# the small domains again, from matrix files with a seeded generator order
MATRIX_ACTIONS = [a for a in ACTIONS if a[3] <= 400 and a[1] != "maxts"]
KSETS = [(8, 2), (8, 3), (9, 2), (9, 3), (10, 2), (10, 3), (12, 2)]
PRODUCTS = [(3, 2), (3, 3), (4, 2), (4, 3), (5, 2)]
# non-degenerate 2-subspaces: Sp6(2) has 63*32 ordered non-perpendicular
# point pairs, 6 to a line; O8+(2) has 135*64/2 hyperbolic lines plus its
# 1120 anisotropic ones
ND2_DEGREE = {"sp6_2": 63 * 32 // 6, "o8p_2": 135 * 64 // 2 + 1120}
COMPARE_SAMPLES = 2000


def _degree_check(path, degree):
    def check(code, out):
        got = _file_degree(path)
        if got != degree:
            return f"{path}: degree {got} != {degree}"
        labels = Path(path + ".labels")
        if labels.exists():
            count = len(labels.read_text(encoding="utf-8").splitlines())
            if count != degree:
                return f"{labels}: {count} labels != {degree}"
        return None

    return check


def _write_matrix_file(name, path: Path, rng: random.Random) -> str:
    """The bundled generator file with its `gen` blocks in seeded order."""
    from importlib import resources

    text = resources.files("regcycles").joinpath(
        "data", f"{name}.mat").read_text(encoding="utf-8")
    head, *blocks = text.split("\ngen")
    rng.shuffle(blocks)
    path.write_text(head + "".join("\ngen" + b.rstrip("\n")
                                   for b in blocks) + "\n",
                    encoding="utf-8")
    return str(path)


def _nd2_item(name, path):
    from regcycles import geometry, perm

    def run():
        space, gens = geometry.builtin_matrix_group(name)
        domain = geometry.nondegenerate_2_subspaces(space)
        G = geometry.perm_image(gens, domain)
        Path(path).write_text(perm.emit_group_file(G), encoding="utf-8")
        return 0

    return Item(f"nondegenerate_2_subspaces {name}", run, (0,),
                _degree_check(path, ND2_DEGREE[name]))


def _compare_check(code, out):
    data = _json(out)
    if code != 0 or not data["monotone"]:
        return f"compare not monotone: {data['violations'][:3]}"
    if data["samples"] != COMPARE_SAMPLES:
        return f"compare sampled {data['samples']} words"
    return None


def _build_item(source, kind, extra, out, degree):
    return _cli_item(f"build-action {' '.join(source)} {kind} "
                     f"{' '.join(extra)}".rstrip(),
                     ["build-action", *source, "--type", kind, *extra,
                      "--out", out], (0,), _degree_check(out, degree))


def setup_build_compare(seed: int, workdir: Path):
    rng = random.Random(seed)
    word_seed = rng.randrange(2**31)
    matrices = {name: _write_matrix_file(name, workdir / f"{name}.mat", rng)
                for name in sorted({a[0] for a in ACTIONS})}
    items = []
    for name, kind, extra, degree in ACTIONS:
        out = str(workdir / f"{name}-{kind}{''.join(extra)}.grp")
        items.append(_build_item(["--builtin", name], kind, extra, out,
                                 degree))
    for name, kind, extra, degree in MATRIX_ACTIONS:
        out = str(workdir / f"mat-{name}-{kind}{''.join(extra)}.grp")
        items.append(_build_item(["--matrix", matrices[name]], kind, extra,
                                 out, degree))
    for m, k in KSETS:
        out = str(workdir / f"ksets-{m}-{k}.grp")
        items.append(_build_item([], "ksets", ["--m", str(m), "--k", str(k)],
                                 out, math.comb(m, k)))
    for m, r in PRODUCTS:
        out = str(workdir / f"product-{m}-{r}.grp")
        items.append(_build_item([], "product",
                                 ["--m", str(m), "--r", str(r)], out, m**r))
    for name in ND2_DEGREE:
        items.append(_nd2_item(name, str(workdir / f"{name}-nd2.grp")))
    for name in ND2_DEGREE:
        items.append(_cli_item(
            f"compare {name} points vs nondegenerate 2-subspaces",
            ["compare", "--json", "--action1",
             str(workdir / f"{name}-singular-points.grp"),
             "--action2", str(workdir / f"{name}-nd2.grp"),
             "--samples", str(COMPARE_SAMPLES), "--seed", str(word_seed)],
            (0, 1), _compare_check))
    return items


# ---------------------------------------------------------------------------
# certify-sweep: seeded certify items from the recorded pool, then the scans

DRAW_PER_CELL = 14
VI_ITEMS = 30

# groups each scan must flag (the acceptance tables)
SCAN_TABLES = {
    "small-dim": (
        [("PSL", 2, q) for q in (5, 7, 8, 9, 11, 16, 19)]
        + [("PSL", 3, q) for q in (3, 4, 5)]
        + [("PSL", 4, q) for q in (2, 3, 4, 5, 8)]
        + [("PSU", 3, q) for q in (3, 4, 5)]
        + [("PSU", 4, q) for q in (2, 3, 4, 5, 8)]
        + [("PSp", 4, q) for q in (4, 5)]),
    "nonsubspace": (
        [("PSL", 5, q) for q in (2, 3, 4)]
        + [("PSL", 6, q) for q in (2, 3, 4, 5, 7, 8, 9, 11)]
        + [("PSL", 7, 2), ("PSL", 8, 2), ("PSL", 8, 3), ("PSL", 10, 2)]
        + [("PSU", 6, 2), ("PSU", 6, 3)]
        + [("PSp", 6, q) for q in (2, 3, 4, 5, 7, 8, 9)]
        + [("PSp", 8, 2), ("PSp", 10, 2)]
        + [("POmega", 7, 3)]
        + [("POmega+", 8, 2), ("POmega+", 8, 3), ("POmega+", 10, 2)]
        + [("POmega-", 8, 2), ("POmega-", 8, 3), ("POmega-", 8, 4),
           ("POmega-", 10, 2)]),
    "dagger": [("PSp", 6, 2), ("PSp", 8, 2), ("PSp", 6, 3),
               ("POmega+", 8, 2), ("POmega+", 10, 2), ("POmega+", 12, 2),
               ("POmega+", 8, 4), ("POmega+", 8, 3), ("POmega-", 8, 2),
               ("POmega", 7, 3)],
}


CERTIFY_VERDICTS = ("certified", "inconclusive", "delegated-external")


def _certify_check(entry):
    want = entry["verdict"]

    def check(code, out):
        data = _json(out)
        if want is None:
            # raised when recorded (defect 3): no verdict to compare, but
            # one given now must still be a verdict with its exit code
            if data["verdict"] not in CERTIFY_VERDICTS:
                return f"verdict {data['verdict']!r} is not a verdict"
        elif data["verdict"] != want:
            return f"verdict {data['verdict']} != recorded {want}"
        if code != (0 if data["verdict"] == "certified" else 1):
            return f"exit {code} for verdict {data['verdict']}"
        return None

    return check


def _scan_check(theorem):
    def check(code, out):
        flagged = {(d["family"], d["n"], d["q"])
                   for d in map(json.loads, out.strip().splitlines())}
        missing = [g for g in SCAN_TABLES[theorem] if g not in flagged]
        return f"{theorem} scan misses {missing}" if missing else None

    return check


def draw_certify(seed: int, pool):
    """DRAW_PER_CELL entries from every (q bucket, case) cell, VI_ITEMS from
    case vi, in a seeded order."""
    rng = random.Random(seed)
    cells: dict[str, list] = {}
    for entry in pool:
        cells.setdefault(entry["cell"], []).append(entry)
    drawn = []
    for cell in sorted(cells):
        k = VI_ITEMS if cell == "vi" else DRAW_PER_CELL
        drawn += rng.sample(cells[cell], k)
    rng.shuffle(drawn)
    return drawn


def setup_certify_sweep(seed: int, workdir: Path):
    items = []
    for entry in draw_certify(seed, certify_pool.load()):
        argv = certify_pool.argv(entry)
        items.append(_cli_item(" ".join(argv[2:]), argv, (0, 1),
                               _certify_check(entry), entry["raises"]))
    for theorem in SCAN_TABLES:
        items.append(_cli_item(f"scan {theorem}",
                               ["scan", "--json", "--theorem", theorem],
                               (0,), _scan_check(theorem)))
    return items


WORKLOADS = {
    "verify": setup_verify,
    "build-compare": setup_build_compare,
    "certify-sweep": setup_certify_sweep,
}
