"""The benchmark's four query workloads.

A workload is built once from a seed (set-up: every input is generated from
the seed alone) and then yields one pass of queries.  Each query is one call a
user makes into the public API or into ``blcalc.cli.main``; its ``check``
runs after the pass, outside the timed interval.  Functions are looked up on
their module at call time so that the traced run's wrappers are used.

Why these workloads: each stresses a different layer.
- ``interpolate``: the term closure in ``formulas`` over ``core.chain_op``.
- ``amalgam``: the eager universe enumeration ``amalgam.universe_chains``
  over ``classes.member``, plus ``maps.enumerate_embeddings``.
- ``catalog``: the quadratic ``class_includes`` dedupe in ``classify`` and
  membership of witness bases in ``classes``.
- ``cli``: argument parsing, ``dsl``, JSON emission and the table layer
  (``decompose``, ``core.check_axioms``), with golden output bytes.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from importlib import import_module
from pathlib import Path
from typing import Any, Callable, Optional

from blcalc import amalgam, classes, classify, cli, dsl, formulas, maps

# The package re-exports the function ``decompose`` under the module's name.
decompose_mod = import_module("blcalc.decompose")

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


@dataclass
class Query:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    result: Any = None
    error: Optional[str] = None
    latency_s: float = 0.0
    scaled_s: float = 0.0  # latency at the reference speed (see run.py)


def canonical_answer(obj) -> str:
    """A deterministic text form of a query's answer, for comparing runs."""
    if hasattr(obj, "to_json"):
        return json.dumps(obj.to_json(), sort_keys=True)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical_answer(x) for x in obj) + "]"
    return repr(obj)


# ---------------------------------------------------------------------------
# interpolate
# ---------------------------------------------------------------------------

MINING_GENERATORS = ("L2", "L3", "W2", "W3", "L1+W1")
# Certified no-interpolant instance over {L2, L3}: exhausts the closure.
CERTIFIED = (
    "(p -> 0) /\\ ((q -> (q -> 0)) /\\ ((q -> 0) -> q))",
    "p \\/ (r * r -> r * r * r)",
    ("L2", "L3"),
)
# Full closures with one shared variable p, with their known sizes.
CLOSURE_PAIR = ("p /\\ q", "p \\/ r")
CLOSURES = ((("L3",), 64), (("W4",), 150), (("L4",), 300), (("L2", "L3"), 192))


def _check_interpolant(premise, conclusion, gens, chi) -> bool:
    if chi is None:
        return False
    shared = formulas.formula_vars(premise) & formulas.formula_vars(conclusion)
    return (
        formulas.formula_vars(chi) <= shared
        and formulas.consequence(premise, chi, gens).holds
        and formulas.consequence(chi, conclusion, gens).holds
    )


class Interpolate:
    def __init__(self, seed: int, tiny: bool, workdir: Path):
        rng = random.Random(seed)
        per_generator = 2 if tiny else 300
        self.plan = []  # (label, call, check) per query
        for text in MINING_GENERATORS:
            gens = [dsl.parse_chain(text)]
            for p, c in formulas.mine_valid_consequences(gens, per_generator, ["p", "q", "r"], rng):
                self.plan.append((
                    "interpolate mined",
                    lambda p=p, c=c, gens=gens: formulas.find_interpolant(p, c, gens),
                    lambda chi, p=p, c=c, gens=gens: _check_interpolant(p, c, gens, chi),
                ))
        if not tiny:
            p, c = (formulas.parse_formula(t) for t in CERTIFIED[:2])
            gens = [dsl.parse_chain(g) for g in CERTIFIED[2]]
            self.plan.append((
                "interpolate certified-none",
                lambda p=p, c=c, gens=gens: formulas.find_interpolant(p, c, gens),
                lambda chi: chi is None,
            ))
        p, c = (formulas.parse_formula(t) for t in CLOSURE_PAIR)
        for names, size in CLOSURES[:1] if tiny else CLOSURES:
            gens = [dsl.parse_chain(g) for g in names]
            self.plan.append((
                f"closure_size {'+'.join(names)}",
                lambda p=p, c=c, gens=gens: formulas.closure_size(p, c, gens),
                lambda n, size=size: n == size,
            ))
        # Spread the short mined queries, which set p50 and p90, over the
        # whole pass instead of timing them all in one burst.
        rng.shuffle(self.plan)

    def queries(self):
        for label, call, check in self.plan:
            yield Query(label, call, check)


# ---------------------------------------------------------------------------
# amalgam
# ---------------------------------------------------------------------------

SPAN_CHAINS = ("T", "W1", "W2", "W3", "Z", "Wo1", "Wo2", "W1+Z", "W2+W1", "Z+W2", "W3+Z")
SPAN_UNIVERSE = "[U*]"
# Spans with no amalgam within bounds: the search exhausts the universe.
NO_AMALGAM = (
    ("T", "W1", "Z", "[W1]|[Z]"),
    ("T", "Z", "W1", "[W1]|[Z]"),
    ("T", "W1+Z", "Z+W1", "[W1 Z]|[Z W1]"),
    ("T", "Z+W1", "W1+Z", "[W1 Z]|[Z W1]"),
)
MAX_INDEX, MAX_K = 3, 7


def _both_routes(span, universe):
    brute = amalgam.find_amalgam_bruteforce(span, universe, max_index=MAX_INDEX, max_k=MAX_K)
    try:
        constructive = amalgam.amalgamate_constructive(span, universe)
    except amalgam.UnsupportedShapeError:
        constructive = None
    return brute, constructive


def _valid_amalgam(span, universe, am) -> bool:
    return (
        maps.verify_embedding(am.left)
        and maps.verify_embedding(am.right)
        and amalgam.spans_commute(span, am)
        and classes.member(am.target, universe)
    )


def _check_amalgams(span, universe, expect_amalgam, answer) -> bool:
    brute, constructive = answer
    if (brute is None) != (constructive is None):
        return False  # the two routes disagree on existence
    if brute is None:
        return not expect_amalgam
    return expect_amalgam and all(_valid_amalgam(span, universe, am) for am in answer)


class Amalgam:
    def __init__(self, seed: int, tiny: bool, workdir: Path):
        rng = random.Random(seed)
        chains = {t: dsl.parse_chain(t) for t in SPAN_CHAINS}
        universe = dsl.parse_class_expr(SPAN_UNIVERSE)
        self.spans = []
        # Every apex/left/right triple that forms a span is used once; the
        # seed picks which embedding each leg is.
        for a in SPAN_CHAINS:
            for b in SPAN_CHAINS:
                for c in SPAN_CHAINS:
                    lefts = maps.enumerate_embeddings(chains[a], chains[b])
                    rights = maps.enumerate_embeddings(chains[a], chains[c])
                    if lefts and rights:
                        span = amalgam.Span(chains[a], rng.choice(lefts), rng.choice(rights))
                        self.spans.append((f"{a}->{b},{c}", span, universe, True))
        if tiny:
            self.spans = rng.sample(self.spans, 8)
        for a, b, c, u in NO_AMALGAM:
            span = amalgam.make_span(dsl.parse_chain(a), dsl.parse_chain(b), dsl.parse_chain(c))
            self.spans.append((f"{a}->{b},{c}", span, dsl.parse_class_expr(u), False))

    def queries(self):
        for label, span, universe, expect in self.spans:
            yield Query(
                f"amalgam {label}",
                lambda s=span, u=universe: _both_routes(s, u),
                lambda ans, s=span, u=universe, e=expect: _check_amalgams(s, u, e, ans),
            )


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

CATALOG_SIZES = {"bl": {1: 100, 2: 318, 3: 660}, "bh": {1: 23, 3: 59}}


def _check_pairs(results) -> bool:
    return all(verdict != "equal" and witness is not None for verdict, witness in results)


def _vfc_row(entries, i):
    v = classes.canonical(entries[i])
    return [classes.vfc_equals(v, e2) for e2 in entries[i + 1:]]


class Catalog:
    def __init__(self, seed: int, tiny: bool, workdir: Path):
        # The catalog bounds are fixed; the seed sets the order of the
        # queries after the two largest enumerations.
        self.seed = seed
        self.n_max = 1 if tiny else 3

    def _enumerate(self, mode, n):
        return Query(
            f"enumerate_catalog {mode} {n}",
            lambda: classify.enumerate_catalog(mode, n),
            lambda cat, size=CATALOG_SIZES[mode][n]: len(cat) == size,
        )

    def queries(self):
        # The verdict queries take their inputs from these two answers.
        entries = {}
        for mode in ("bl", "bh"):
            q = self._enumerate(mode, self.n_max)
            yield q
            entries[mode] = [e for e, _, _ in q.result or () if e is not None]
        bl, bh = entries["bl"], entries["bh"]
        rest = [self._enumerate("bl", n) for n in range(1, self.n_max)]
        rest += [Query("classify_ap_bl", lambda e=e: classify.classify_ap_bl(classes.canonical(e)),
                       lambda v: v.ap is True) for e in bl]
        rest += [Query("classify_ap_bh", lambda e=e: classify.classify_ap_bh(classes.canonical(e)),
                       lambda v: v.ap is True) for e in bh]
        rest += [Query("vfc_equals row", lambda i=i: _vfc_row(bh, i), _check_pairs)
                 for i in range(len(bh))]
        # Spread the short verdict queries, which set p50, between the
        # smaller enumerations instead of timing them all in one burst.
        random.Random(self.seed).shuffle(rest)
        yield from rest


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

# Every CLI example of the README; {l2} and {g3} are tables written in set-up.
README_COMMANDS = (
    ("chain", "eval", "L2+W1", "--op", "mul", "--x", "0:1", "--y", "1:0"),
    ("chain", "flatten", "W2"),
    ("chain", "check", "--table", "{l2}"),
    ("chain", "decompose", "--table", "{g3}"),
    ("amalgam", "search", "--apex", "W1", "--left", "W2", "--right", "W3",
     "--universe", "[U]", "--max-k", "7"),
    ("amalgam", "construct", "--apex", "W1", "--left", "W2", "--right", "W3", "--universe", "[U]"),
    ("amalgam", "one-sided", "--apex", "T", "--left", "W1", "--right", "Z",
     "--universe", "[W1]|[Z]"),
    ("classify", "mv", "--gens", "L2,L4"),
    ("classify", "bh", "--gens", "W1+W1"),
    ("classify", "bh", "--class", "[(W1 Z)*]"),
    ("classify", "bl", "--class", "[UM U*]"),
    ("poset", "--interval", "I(W1,Z)", "--format", "dot"),
    ("poset", "--interval", "I(Wo2)", "--format", "json"),
    ("logic", "consequence", "--premise", "p\\/(p->0)", "--conclusion", "p", "--gens", "L2"),
    ("logic", "interpolate", "--premise", "p/\\q", "--conclusion", "p\\/r", "--gens", "W1"),
    ("logic", "dip", "--class", "[L1 Z]"),
)
README_TABLES = {"l2": "L2", "g3": "L1+W1"}
# Seeded tables: 49 sizes spread evenly over 20..80 elements.  The cost of
# check_axioms and decompose grows steeply with size, so fixing the sizes
# keeps the pass cost independent of the seed, and distinct sizes keep p50
# off the jump between two groups of equal-sized tables.
TABLE_SIZES = tuple(20 + 60 * i // 48 for i in range(49))


def random_chain_text(rng: random.Random, size: int) -> str:
    """A finite chain with ``size`` elements: a random sum of W1..W6, half
    of them with designated bounds."""
    parts = []
    left = size - 1
    while left:
        k = rng.randint(1, min(6, left))
        parts.append(k)
        left -= k
    head = "L" if rng.random() < 0.5 else "W"
    return "+".join([f"{head}{parts[0]}"] + [f"W{k}" for k in parts[1:]])


def run_cli(argv) -> tuple:
    """``blcalc.cli.main`` in-process: (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _write_table(path: Path, chain) -> None:
    path.write_text(json.dumps(decompose_mod.flatten(chain).to_json()))


def readme_commands(workdir: Path) -> list:
    """Write the README's tables into ``workdir``; return the README
    commands with their table paths filled in."""
    paths = {}
    for name, text in README_TABLES.items():
        paths[name] = str(workdir / f"{name}.json")
        _write_table(Path(paths[name]), dsl.parse_chain(text))
    return [tuple(a.format(**paths) for a in argv) for argv in README_COMMANDS]


def _check_golden(golden, answer) -> bool:
    code, out = answer
    return code == golden["exit"] and out == golden["stdout"]


def _check_report(chain, answer) -> bool:
    code, out = answer
    report = json.loads(out)["report"]
    return (
        code == 0
        and report["basic_hoop_chain"]
        and report["bl_chain"] == chain.bottom
        and report["mv_chain"] == (chain.bottom and chain.index == 1)
    )


def _check_decomposition(chain, answer) -> bool:
    """decompose(flatten(c)) == c, read back from the CLI output."""
    code, out = answer
    return code == 0 and dsl.parse_chain(json.loads(out)["chain"]) == chain


class Cli:
    def __init__(self, seed: int, tiny: bool, workdir: Path):
        rng = random.Random(seed)
        self.readme = readme_commands(workdir)
        goldens = json.loads(GOLDEN_PATH.read_text())["commands"]
        self.goldens = {tuple(g["argv"]): g for g in goldens}
        self.tables = []
        sizes = (20, 30) if tiny else TABLE_SIZES
        for i, size in enumerate(sizes):
            chain = dsl.parse_chain(random_chain_text(rng, size))
            path = workdir / f"t{i}.json"
            _write_table(path, chain)
            self.tables.append((str(path), chain))

    def queries(self):
        for template, argv in zip(README_COMMANDS, self.readme):
            golden = self.goldens.get(template)
            yield Query(
                "cli " + " ".join(template[:2]),
                lambda argv=argv: run_cli(argv),
                lambda ans, g=golden: g is not None and _check_golden(g, ans),
            )
        for path, chain in self.tables:
            yield Query(
                "cli chain check",
                lambda path=path: run_cli(("chain", "check", "--table", path)),
                lambda ans, c=chain: _check_report(c, ans),
            )
            yield Query(
                "cli chain decompose",
                lambda path=path: run_cli(("chain", "decompose", "--table", path)),
                lambda ans, c=chain: _check_decomposition(c, ans),
            )


WORKLOADS = {
    "interpolate": Interpolate,
    "amalgam": Amalgam,
    "catalog": Catalog,
    "cli": Cli,
}
