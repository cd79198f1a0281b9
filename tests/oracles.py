"""Independent oracles shared by the test modules.

The element evaluators work on one symbolic element at a time: ``order_le``
compares two elements of a chain, the order that the meet of ``chain_op``
and the listing of ``decompose.finite_elements`` are checked against;
``eval_formula`` evaluates a formula through ``chain_op``, the constant 0
as ``bottom_element`` (built from ``local_bottom``), and checks the
``core.RunForm`` index route of ``formulas``; ``apply_map``, with the local
rule ``apply_local`` it applies, evaluates a map point by point and checks
``maps._composite`` and ``maps.verify_embedding``, which decide composition
and embedding on the map's data alone.

The table-level oracles work directly on raw operation tables and never call
the structural engine they are used to check; the scan axiom check runs the
cubic associativity and residuation scans that ``check_axioms`` skips on
recognised ordinal sums and replaces by Light's test and one pass per row
on other tables, the chain-op flattening evaluates every entry
through ``chain_op`` and the form tabulation applies the rules of
``core.RunForm`` to every pair of a run, where ``core.table_rows`` writes
each row of every table of the package from slices of the index tuple,
and the scan decomposition runs the
exhaustive axiom check and per-block tests that ``decompose`` replaces
with one table comparison, over the blocks of the component predicate
``in_one_component``, which the package does not read.  The window oracles
evaluate maps point by point instead of composing them or reading legality
off their data.  The pair
search tests every pair of legs of every target, as the codomain-guided
walk and the composite join of the brute-force search avoid doing, and the
greedy kind embedding decides each finished target on its own, where
``amalgam.universe_chains`` carries the greedy match down the walk.  The catalog
oracle drops a candidate whose class equals a kept one's, compared pair by
pair, where ``classify`` lists classes distinct by construction; the scan
classification compares a variety with each interval node or BL case shape
by ``equals_by_witness_search``, where ``classify`` looks its normal form
up.  That comparison runs the least-``k`` witness search both ways, with
its own loop and membership by assignments, where ``classes.vfc_equals``
compares normal forms and ``classes._first_outside`` scans greedily; the
enumerated inclusion tests every chain of a class up to an index, where
``classes.class_includes`` builds no chain and passes each reduced sum
class into the other class's reduced sum classes.  The kind join is the
case table that ``amalgam._join_kinds`` reads off ``core.kind_embeds``.
The backtracking membership takes the first of every assignment of
components to items, where ``classes.member`` runs one greedy scan, and the
filtered universe tests every product of kinds for membership, where
``amalgam.universe_chains`` walks prefixes that a sum class still takes;
both hold the trivial chain of the signature, bounded or not, as a member.
The filter-definition essentiality test evaluates the congruence of the
target's smallest nontrivial filter on windows of image points, where
``maps.is_essential_embedding`` reads essentiality off the map's last
component.  The cover recomputation re-derives an interval's Hasse relation
from class inclusions over all ordered pairs, where
``IntervalPoset.covers`` takes only the pairs up the node order.  The
component classifier compares a block entry by entry with the finite
Lukasiewicz table, as ``decompose`` does with one whole-table comparison.
The rotation table is the disconnected rotation of a cancellative kind,
written as its own case table, against which acceptance criterion 4 checks
the lexicographic chains of ``core.component_op``.  The element closure
reads each generator's operations from tables filled once through
``chain_op``, and the sweeps and consequence compute every vector entry
through ``chain_op`` and every valuation through ``eval_formula``, one at a
time, where ``formulas`` computes on the integer indices of
``core.RunForm``.  The walk-only
interpolant search certifies that none exists only by exhausting the
closure, where ``formulas.find_interpolant`` decides it on pairs of points;
the pair closure closes the seed pairs of two points on its own, where
``formulas._separated`` walks the one term-closure loop over them.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations, product
from typing import Mapping, Optional, Sequence

from blcalc.amalgam import (
    Amalgam,
    CollapsingMap,
    spans_commute,
    universe_chains,
)
from blcalc.classes import (
    ClassExpr,
    class_includes,
    component_member,
    member,
    normalize_kinds,
    witness_basis,
)
from blcalc.classify import (
    IntervalPoset,
    Verdict,
    _bl_case_shapes,
    enumerate_catalog,
    interval,
)
from blcalc.core import (
    CANC,
    CANC_Z,
    FIN,
    LEX,
    STD_UNIT,
    TRIV,
    UNIT,
    AxiomReport,
    Chain,
    Element,
    Kind,
    LocalValue,
    MAX_TABLE_SIZE,
    ModeMismatchError,
    TOP,
    RawChain,
    RunForm,
    _check_member,
    chain,
    chain_op,
    component_op,
    element,
    enumerate_elements,
    fin_luk,
    kind_embeds,
    lex_omega,
    local_top,
)
from blcalc.decompose import (
    Decomposition,
    finite_elements,
    flatten,
)
from blcalc.dsl import parse_class_expr
from blcalc.formulas import (
    BinOp,
    ClosureLimitError,
    ConsequenceResult,
    Const,
    Formula,
    FormulaError,
    Var,
    _points,
    _valuation_blocks,
    _values,
    formula_vars,
    term_closure,
)
from blcalc.maps import (
    ChainMap,
    enumerate_embeddings,
    filter_contains,
    filters,
    quotient_by_filter,
    verify_embedding,
)


def local_bottom(kind: Kind) -> LocalValue:
    """Least local value; only bounded kinds have one."""
    if kind.tag == FIN:
        return 0
    if kind.tag == LEX:
        return (0, 0)
    if kind.tag == UNIT:
        return Fraction(0)
    if kind.tag == TRIV:
        return 0
    raise ValueError(f"{kind} has no least element")


def bottom_element(c: Chain) -> Element:
    """Least element of a chain whose first component is bounded."""
    if c.is_trivial:
        return TOP
    return element(c, 0, local_bottom(c.components[0]))


def order_le(c: Chain, x: Element, y: Element) -> bool:
    _check_member(c, x)
    _check_member(c, y)
    if y.is_top:
        return True
    if x.is_top:
        return False
    if x.ci != y.ci:
        return x.ci < y.ci
    return x.value <= y.value


def apply_local(src: Kind, dst: Kind, scale: int, v: LocalValue) -> LocalValue:
    s, d = src.tag, dst.tag
    if s == FIN and d == FIN:
        return v * (dst.k // src.k)
    if s == FIN and d == LEX:
        return (v * (dst.k // src.k), 0)
    if s == FIN and d == UNIT:
        return Fraction(v, src.k)
    if s == CANC and d == CANC:
        return scale * v
    if s == CANC and d == LEX:
        return (dst.k, scale * v)
    if s == LEX and d == LEX:
        a, b = v
        return (a * (dst.k // src.k), scale * b)
    if s == UNIT and d == UNIT:
        return v
    raise ValueError(f"no local map from {src} to {dst}")


def apply_map(m: ChainMap, x: Element) -> Element:
    if x.is_top:
        return TOP
    pos = m.index_map[x.ci]
    if not 0 <= pos < m.target.index:
        raise ValueError(f"component index {pos} out of range for {m.target!r}")
    src, dst = m.source.components[x.ci], m.target.components[pos]
    return element(m.target, pos, apply_local(src, dst, m.scales[x.ci], x.value))


def eval_formula(f: Formula, c: Chain, valuation: Mapping[str, Element]) -> Element:
    if isinstance(f, Var):
        if f.name not in valuation:
            raise FormulaError(f"unassigned variable {f.name!r}")
        return valuation[f.name]
    if isinstance(f, Const):
        if f.symbol == "1":
            return TOP
        if not c.bottom:
            raise FormulaError("constant 0 needs designated bounds")
        return bottom_element(c)
    return chain_op(
        c,
        f.op,
        eval_formula(f.left, c, valuation),
        eval_formula(f.right, c, valuation),
    )


def apply_completion(m, x):
    """Evaluate a completion, collapsing first when it is a ``CollapsingMap``."""
    if isinstance(m, CollapsingMap):
        _, project = quotient_by_filter(m.source, m.collapse)
        return apply_map(m.embed, project(x))
    return apply_map(m, x)


def window_commutes(s, am, caps: int = 3) -> bool:
    """Reference for ``amalgam.spans_commute``: both sides of the square agree
    on every point of a truncation window of the apex."""
    return all(
        apply_map(am.left, apply_map(s.left, x))
        == apply_completion(am.right, apply_map(s.right, x))
        for x in enumerate_elements(s.apex, caps)
    )


def find_amalgam_by_pairs(s, universe, max_index=3, max_k=7, scale_cap=4):
    """Reference for ``amalgam.find_amalgam_bruteforce``: every target of the
    universe walk, every left leg, then every right leg, each pair tested
    with ``spans_commute``."""
    for target in universe_chains(universe, max_index, max_k):
        lefts = enumerate_embeddings(s.left.target, target, scale_cap)
        if not lefts:
            continue
        rights = enumerate_embeddings(s.right.target, target, scale_cap)
        for psi1 in lefts:
            for psi2 in rights:
                am = Amalgam(left=psi1, right=psi2)
                if spans_commute(s, am):
                    return am
    return None


def embeddings_by_verification(a, b, scale_cap=4) -> list:
    """Reference for ``maps.embedding_choices``: every increasing choice of
    positions with every scale up to ``scale_cap`` on a cancellative
    component (1 elsewhere) that ``verify_embedding`` accepts, as
    ``(positions, scales)`` in lexicographic order."""
    per_comp = [range(1, scale_cap + 1) if k.cancellative else (1,) for k in a.components]
    return [
        (positions, scales)
        for positions in combinations(range(b.index), a.index)
        for scales in product(*per_comp)
        if verify_embedding(ChainMap(a, b, positions, scales))
    ]


def kind_embeds_by_greedy(a, b) -> bool:
    """Reference for the kind rule of ``amalgam.universe_chains``: whether
    ``enumerate_embeddings(a, b)`` finds an embedding, decided on one
    finished target by component kinds alone.

    Each component of ``a`` takes the leftmost free component of ``b`` it
    embeds into by ``core.kind_embeds`` (first to first when bounds are
    designated); for an order-preserving injection the greedy choice fails
    only when every choice does.
    """
    if a.bottom != b.bottom:
        raise ModeMismatchError(f"{a!r} and {b!r} disagree on designated bounds")
    if a.is_trivial:
        return not a.bottom or b.is_trivial
    p = 0
    for i, kind in enumerate(a.components):
        while p < b.index and not kind_embeds(kind, b.components[p]):
            if a.bottom and i == 0:
                return False
            p += 1
        if p == b.index:
            return False
        p += 1
    return True


def _assignments(comps, items, ci, ii, asg):
    if ci == len(comps):
        yield tuple(asg)
        return
    if ii == len(items):
        return
    item = items[ii]
    if any(component_member(comps[ci], k) for k in item.kinds):
        asg.append(ii)
        yield from _assignments(comps, items, ci + 1, ii if item.star else ii + 1, asg)
        asg.pop()
    yield from _assignments(comps, items, ci, ii + 1, asg)


def assignments_by_backtracking(c, items):
    """Reference for ``classes.match_assignments``: every assignment of the
    chain's components to a sum class's items, in backtracking order; with
    designated bounds the head takes the first component and the rest are
    matched against the other items.  The trivial chain has the empty
    assignment."""
    comps = c.components
    if not c.bottom or not comps:
        yield from _assignments(comps, items, 0, 0, [])
    elif component_member(comps[0], items[0].kinds[0]):
        for rest in _assignments(comps[1:], items[1:], 0, 0, []):
            yield (0,) + tuple(i + 1 for i in rest)


def member_by_assignments(c, e) -> bool:
    """Reference for ``classes.member``: some sum class has an assignment."""
    if c.bottom != e.bottom:
        raise ModeMismatchError(f"{c!r} and {e!r} disagree on designated bounds")
    return any(next(assignments_by_backtracking(c, s), None) is not None for s in e.sums)


def first_outside_by_scan(a, b):
    """Reference for ``classes._first_outside``: the first chain of
    ``witness_basis(a, k)`` that ``b`` does not hold, for the least ``k`` up
    to ``b``'s number of greedy scan positions (``len(items) + 1`` per sum
    class), with membership by ``member_by_assignments``; ``None`` when
    there is none."""
    for k in range(1, sum(len(s) + 1 for s in b.sums) + 1):
        for c in witness_basis(a, k):
            if not member_by_assignments(c, b):
                return c
    return None


def equals_by_witness_search(v, e):
    """Reference for ``classes.vfc_equals``: a witness search both ways
    (``first_outside_by_scan``), equal when neither finds one, where
    ``vfc_equals`` compares normal forms."""
    wit = first_outside_by_scan(v, e)
    if wit is not None:
        return "v_strictly_larger_or_incomparable", wit
    wit = first_outside_by_scan(e, v)
    if wit is None:
        return "equal", None
    return "v_strictly_smaller", wit


ENUMERATION_KINDS = (
    fin_luk(1), fin_luk(2), fin_luk(4), lex_omega(1), lex_omega(2), CANC_Z, STD_UNIT,
)


def includes_by_enumeration(a, b, max_index) -> bool:
    """Reference for ``classes.class_includes``: ``b`` holds every chain of
    ``a`` of index at most ``max_index`` over ``ENUMERATION_KINDS``, with
    membership by ``classes.member`` (which ``tests/test_membership.py``
    checks against ``member_by_assignments``).  Chains are grown one
    component at a time while they stay in ``a``; a prefix of a member is a
    member, since the assignment restricts to it."""
    frontier = [()]
    for _ in range(max_index):
        grown = []
        for kinds in frontier:
            for k in ENUMERATION_KINDS:
                if a.bottom and not kinds and not k.bounded:
                    continue
                c = chain(kinds + (k,), bottom=a.bottom)
                if member(c, a):
                    if not member(c, b):
                        return False
                    grown.append(c.components)
        frontier = grown
    return True


def universe_chains_by_filter(e, max_index, max_k):
    """Reference for ``amalgam.universe_chains``: every product of the kinds
    some item kind admits, kept when ``member_by_assignments`` holds, after the
    trivial chain of the signature."""
    item_kinds = [k for s in e.sums for item in s for k in item.kinds]
    candidates = (
        [fin_luk(k) for k in range(1, max_k + 1)]
        + [lex_omega(k) for k in range(1, max_k + 1)]
        + [CANC_Z, STD_UNIT]
    )
    kinds = [k for k in candidates if any(component_member(k, g) for g in item_kinds)]
    yield chain((), bottom=e.bottom)
    for length in range(1, max_index + 1):
        for combo in product(kinds, repeat=length):
            if e.bottom and not combo[0].bounded:
                continue
            c = chain(combo, bottom=e.bottom)
            if member_by_assignments(c, e):
                yield c


def join_kinds_by_cases(b: Kind, c: Kind) -> Optional[Kind]:
    """Reference for ``amalgam._join_kinds``: the least representable kind
    both arguments embed into, case by case, or ``None`` when there is
    none."""
    tags = {b.tag, c.tag}
    if tags == {FIN}:
        return fin_luk(math.lcm(b.k, c.k))
    if tags == {FIN, LEX} or tags == {LEX}:
        return lex_omega(math.lcm(b.k, c.k))
    if tags == {FIN, CANC}:
        return lex_omega(b.k if b.tag == FIN else c.k)
    if tags == {LEX, CANC}:
        return lex_omega(b.k if b.tag == LEX else c.k)
    if tags == {CANC}:
        return CANC_Z
    if tags == {UNIT} or tags == {FIN, UNIT}:
        return STD_UNIT
    return None


def window_embedding(m: ChainMap, caps: int = 3) -> bool:
    """Reference for ``maps.verify_embedding``: check injectivity, order and
    operation preservation on windows."""
    src, tgt = m.source, m.target
    if src.bottom != tgt.bottom:
        return False
    window = enumerate_elements(src, caps)
    images = [apply_map(m, x) for x in window]
    if len(set(images)) != len(images):
        return False
    if src.bottom and not src.is_trivial:
        if apply_map(m, element(src, 0, local_bottom(src.components[0]))) != element(
            tgt, 0, local_bottom(tgt.components[0])
        ):
            return False
    for x, fx in zip(window, images):
        for y, fy in zip(window, images):
            if order_le(src, x, y) != order_le(tgt, fx, fy):
                return False
            for op in ("mul", "imp", "meet", "join"):
                if apply_map(m, chain_op(src, op, x, y)) != chain_op(tgt, op, fx, fy):
                    return False
    return True


def essential_by_filter_definition(m: ChainMap, caps: int = 3) -> bool:
    """Essentiality per the congruence definition, decided on windows.

    Exact on fully finite chains; used as the oracle the structural test is
    validated against.
    """
    tgt = m.target
    fs = filters(tgt)
    if len(fs) < 2:
        return m.source.is_trivial
    fmin = fs[-2]
    if m.source.is_trivial:
        return False
    image = [apply_map(m, x) for x in enumerate_elements(m.source, caps)]
    for x in image:
        for y in image:
            if x != y and order_le(tgt, x, y):
                if filter_contains(tgt, fmin, chain_op(tgt, "imp", y, x)):
                    return True
    return False


def check_axioms_by_scans(t: RawChain) -> AxiomReport:
    """Reference for ``core.check_axioms``: exhaustively check the
    residuated-chain laws on a raw table."""
    n = t.size
    top = n - 1
    rng = range(n)
    mul, imp = t.mul, t.imp
    failures = []

    def fail(law, *witness):
        failures.append((law, witness))

    monoid = True
    for x, y in product(rng, rng):
        if mul[x][y] != mul[y][x]:
            fail("commutativity", x, y)
            monoid = False
            break
    if monoid:
        for x in rng:
            if mul[x][top] != x:
                fail("unit", x)
                monoid = False
                break
    if monoid:
        for x, y, z in product(rng, rng, rng):
            if mul[mul[x][y]][z] != mul[x][mul[y][z]]:
                fail("associativity", x, y, z)
                monoid = False
                break

    residuation = True
    for x, y, z in product(rng, rng, rng):
        if (mul[x][y] <= z) != (x <= imp[y][z]):
            fail("residuation", x, y, z)
            residuation = False
            break

    integrality = all(mul[x][y] <= min(x, y) for x in rng for y in rng)
    if not integrality:
        fail("integrality")

    divisibility = True
    for x, y in product(rng, rng):
        if mul[x][imp[x][y]] != min(x, y):
            fail("divisibility", x, y)
            divisibility = False
            break

    prelinearity = True
    for x, y in product(rng, rng):
        if max(imp[x][y], imp[y][x]) != top:
            fail("prelinearity", x, y)
            prelinearity = False
            break

    mv_identity = True
    for x, y in product(rng, rng):
        if imp[imp[x][y]][y] != max(x, y):
            fail("mv_identity", x, y)
            mv_identity = False
            break

    cancellativity = True
    for x, y in product(rng, rng):
        if imp[x][mul[x][y]] != y:
            fail("cancellativity", x, y)
            cancellativity = False
            break

    return AxiomReport(
        commutative_monoid=monoid,
        residuation=residuation,
        integrality=integrality,
        divisibility=divisibility,
        prelinearity=prelinearity,
        mv_identity=mv_identity,
        cancellativity=cancellativity,
        bounded=t.bottom,
        failures=tuple(failures),
    )


def flatten_by_chain_op(c) -> RawChain:
    """Reference for ``decompose.flatten``: tabulate a fully finite chain
    through ``chain_op``; index order is element order."""
    elems = finite_elements(c)
    pos = {e: i for i, e in enumerate(elems)}
    n = len(elems)
    mul = tuple(
        tuple(pos[chain_op(c, "mul", x, y)] for y in elems) for x in elems
    )
    imp = tuple(
        tuple(pos[chain_op(c, "imp", x, y)] for y in elems) for x in elems
    )
    return RawChain(size=n, mul=mul, imp=imp, bottom=c.bottom)


def table_rows_by_form(c: Chain) -> tuple:
    """Reference for ``core.table_rows``: the mul and imp rows of a fully
    finite chain, tabulated from its ``RunForm``; index order is element
    order.  Row x, for x in the run s .. e - 1 (a top stores s = e), is the
    indices below s, then x against each index of the run, then x for mul
    and the top for imp up to the end.  The form is applied once per run,
    to every pair of its indices, where ``table_rows`` writes each row from
    slices of the index tuple."""
    if c.size > MAX_TABLE_SIZE:
        raise ValueError(f"a table of {c.size} elements exceeds MAX_TABLE_SIZE = {MAX_TABLE_SIZE}")
    form = RunForm([c])
    n = len(form.start)
    top = n - 1
    mul, imp = [], []
    for x, s, e in zip(range(n), form.start, form.end):
        if x == s:  # the first index of a run, or the top
            below, run, m = tuple(range(s)), range(s, e), e - s
            xs, ys = tuple([v for v in run for _ in run]), tuple(run) * m
            run_mul, run_imp = form.mul(xs, ys), form.imp(xs, ys)
        i = (x - s) * m
        mul.append(below + run_mul[i:i + m] + (x,) * (n - e))
        imp.append(below + run_imp[i:i + m] + (top,) * (n - e))
    return tuple(mul), tuple(imp)


def valuation_points(shared, gens) -> list:
    """The (generator index, shared-variable values) pairs of the interpolant
    search, as elements, in generator order and then product order."""
    return [
        (gi, combo)
        for gi, g in enumerate(gens)
        for combo in product(finite_elements(g), repeat=len(shared))
    ]


def term_closure_by_chain_op(shared, gens):
    """Reference for ``formulas.term_closure``: the same seeds and the same
    smallest-first order, with every vector a tuple of elements.  Each
    generator's four operations are tabulated once through ``chain_op``,
    over the positions of its elements in ``finite_elements``, and the walk
    reads the tables."""
    points = valuation_points(shared, gens)
    elements = [finite_elements(g) for g in gens]
    position = [{x: i for i, x in enumerate(xs)} for xs in elements]
    tables = [
        {op: [[pos[chain_op(g, op, x, y)] for y in xs] for x in xs]
         for op in ("mul", "meet", "join", "imp")}
        for g, xs, pos in zip(gens, elements, position)
    ]
    point_gens = [gi for gi, _ in points]
    point_tables = [tables[gi] for gi in point_gens]

    def seed(values):
        return tuple(position[gi][x] for gi, x in zip(point_gens, values))

    def as_elements(vec):
        return tuple(elements[gi][i] for gi, i in zip(point_gens, vec))

    seeds = [(seed(TOP for _ in points), Const("1"))]
    if gens and gens[0].bottom:
        seeds.append((seed(bottom_element(gens[gi]) for gi in point_gens), Const("0")))
    for vi, name in enumerate(shared):
        seeds.append((seed(combo[vi] for _, combo in points), Var(name)))

    queue = []
    seen = set()
    for vec, term in seeds:
        if vec not in seen:
            seen.add(vec)
            queue.append((vec, term))
            yield as_elements(vec), term
    i = 0
    while i < len(queue):
        vec_i, term_i = queue[i]
        for j in range(i + 1):
            vec_j, term_j = queue[j]
            for op, a, b, ta, tb in (
                ("mul", vec_i, vec_j, term_i, term_j),
                ("meet", vec_i, vec_j, term_i, term_j),
                ("join", vec_i, vec_j, term_i, term_j),
                ("imp", vec_i, vec_j, term_i, term_j),
                ("imp", vec_j, vec_i, term_j, term_i),
            ):
                vec = tuple(t[op][x][y] for t, x, y in zip(point_tables, a, b))
                if vec not in seen:
                    seen.add(vec)
                    term = BinOp(op, ta, tb)
                    queue.append((vec, term))
                    yield as_elements(vec), term
        i += 1


def consequence_by_eval(premise, conclusion, gens):
    """Reference for ``formulas.consequence``: every valuation into every
    generator, in generator order and then product order, evaluated one at
    a time by ``eval_formula``; the first failing one is the countermodel."""
    names = sorted(formula_vars(premise) | formula_vars(conclusion))
    for gi, g in enumerate(gens):
        for combo in product(finite_elements(g), repeat=len(names)):
            val = dict(zip(names, combo))
            if eval_formula(premise, g, val) == TOP:
                if eval_formula(conclusion, g, val) != TOP:
                    return ConsequenceResult(False, (gi, val))
    return ConsequenceResult(True)


def find_interpolant_by_chain_op(premise, conclusion, gens):
    """Reference for ``formulas.find_interpolant`` on a valid consequence:
    the point sets come from ``eval_formula`` sweeps and the walk is
    ``term_closure_by_chain_op``."""
    shared = sorted(formula_vars(premise) & formula_vars(conclusion))
    point_index = {pt: p for p, pt in enumerate(valuation_points(shared, gens))}

    def sweep(f):
        names = sorted(formula_vars(f) | set(shared))
        spos = [names.index(s) for s in shared]
        for gi, g in enumerate(gens):
            for combo in product(finite_elements(g), repeat=len(names)):
                pt = point_index[(gi, tuple(combo[p] for p in spos))]
                yield pt, eval_formula(f, g, dict(zip(names, combo))) == TOP

    must_top = {pt for pt, top in sweep(premise) if top}
    not_may_top = {pt for pt, top in sweep(conclusion) if not top}
    for vec, term in term_closure_by_chain_op(shared, gens):
        if all(vec[p] == TOP for p in must_top) and not any(
            vec[p] == TOP for p in not_may_top
        ):
            return term
    return None


def find_interpolant_by_walk(
    premise: Formula,
    conclusion: Formula,
    gens: Sequence[Chain],
    limit: int = 100_000,
) -> Optional[Formula]:
    """Reference for ``formulas.find_interpolant``: the walk-only route,
    which certifies None only by exhausting the closure, where
    ``find_interpolant`` certifies it on pairs of points.

    Requires the consequence to hold and every generator to be fully finite.
    The closure is walked in the fixed order of ``term_closure``, so the
    returned formula is deterministic.
    """
    shared = sorted(formula_vars(premise) & formula_vars(conclusion))
    form = RunForm(gens)
    tops = [block[-1] for block, _ in _points(shared, form)]
    first_point = list(
        accumulate((len(block) ** len(shared) for block in form.blocks), initial=0)
    )

    def sweep(f: Formula):
        # (point, f is top) for every valuation of the shared variables and
        # then f's others; the rows of one point are consecutive
        names = shared + sorted(formula_vars(f) - set(shared))
        for gi, row, columns in _valuation_blocks(names, form):
            rows_per_point = len(form.blocks[gi]) ** (len(names) - len(shared))
            values = zip(_values(f, columns, form), columns["1"])
            for r, (x, top) in enumerate(values, row):
                yield first_point[gi] + r // rows_per_point, x == top

    # A joint valuation is a point plus independent premise-only and
    # conclusion-only parts, so the consequence holds exactly when must_top is
    # a subset of may_top, the complement of not_may_top.
    must_top = {pt for pt, top in sweep(premise) if top}
    not_may_top = {pt for pt, top in sweep(conclusion) if not top}
    if not must_top.isdisjoint(not_may_top):
        raise ValueError("premise does not entail conclusion on the generators")
    must = [(p, tops[p]) for p in must_top]
    must_not = [(p, tops[p]) for p in not_may_top]
    for n, (vec, term) in enumerate(term_closure(shared, gens), 1):
        if n > limit:
            raise ClosureLimitError(f"closure exceeded {limit} elements")
        if all(vec[p] == top for p, top in must) and not any(
            vec[p] == top for p, top in must_not
        ):
            return term
    return None


def separated_by_pairs(form: RunForm, points: list, bounded: bool, m: int, q: int) -> bool:
    """Reference for ``formulas._separated``: its own closure of the seed
    pairs of points m and q under the form's connectives on 2-tuples, with
    no row kernel and no comparable-pair pruning, where ``_separated``
    walks ``term_closure``'s loop over the two points."""
    (block_m, combo_m), (block_q, combo_q) = points[m], points[q]
    top_m, top_q = block_m[-1], block_q[-1]
    seeds = [(top_m, top_q)]
    if bounded:
        seeds.append((block_m[0], block_q[0]))
    pairs = list(dict.fromkeys(seeds + list(zip(combo_m, combo_q))))
    if any(x == top_m and y != top_q for x, y in pairs):
        return True
    mul, meet, join, imp = form.mul, form.meet, form.join, form.imp
    seen = set(pairs)
    for i, a in enumerate(pairs):
        for b in pairs[:i + 1]:
            for pair in (mul(a, b), meet(a, b), join(a, b), imp(a, b), imp(b, a)):
                if pair not in seen:
                    if pair[0] == top_m and pair[1] != top_q:
                        return True
                    seen.add(pair)
                    pairs.append(pair)
    return False


def differential_tables():
    """Every table of size <= 2, and every small finite chain of both
    signatures with each of its single-entry mul/imp mutations."""
    for bottom in (False, True):
        yield RawChain(1, ((0,),), ((0,),), bottom)
        for m in product((0, 1), repeat=8):
            yield RawChain(2, (m[0:2], m[2:4]), (m[4:6], m[6:8]), bottom)
        for c in small_chains(5, bottom):
            t = flatten_by_chain_op(c)
            yield t
            for op, x, y in product(("mul", "imp"), range(t.size), range(t.size)):
                for v in range(t.size):
                    tab = [list(r) for r in getattr(t, op)]
                    if tab[x][y] == v:
                        continue
                    tab[x][y] = v
                    yield RawChain(
                        t.size,
                        tab if op == "mul" else t.mul,
                        tab if op == "imp" else t.imp,
                        bottom,
                    )


def classify_component(t: RawChain, block) -> Kind:
    """Identify a component block (indices below top) as a finite chain kind.

    The block plus the top must carry the table of ``W m``,
    m the block size, under the order isomorphism sending the i-th smallest
    block element to i.  The top lies in every component, so a block must
    not hold it.
    """
    block = sorted(block)
    if t.top in block:
        raise ValueError("the top lies in every component")
    if not all(0 <= e < t.size for e in block):
        raise ValueError("element index out of range")
    if len(set(block)) != len(block):
        raise ValueError("block repeats an element")
    kind = fin_luk(len(block))  # an empty block fails here, before any table is read
    elems = block + [t.top]
    luk = flatten(chain((kind,)))
    for i, x in enumerate(elems):
        for j, y in enumerate(elems):
            for op in ("mul", "imp"):
                if getattr(t, op)[x][y] != elems[getattr(luk, op)[i][j]]:
                    raise ValueError(
                        f"block {block} is not a Wajsberg component: {op} at ({x},{y})"
                    )
    return kind


def in_one_component(t: RawChain, a: int, b: int) -> bool:
    """(a -> b) -> b = (b -> a) -> a, without argument checks: on a
    basic-hoop chain, whether non-top a and b lie in one Wajsberg component."""
    imp = t.imp
    return imp[imp[a][b]][b] == imp[imp[b][a]][a]


def component_runs(t: RawChain) -> tuple:
    """Maximal runs of neighbouring non-top elements that lie in one
    component by ``in_one_component``, ascending: the runs that
    ``core.ordinal_sum_of`` cuts at x -> x - 1 instead."""
    runs = []
    for e in range(t.size - 1):
        if runs and in_one_component(t, runs[-1][-1], e):
            runs[-1].append(e)
        else:
            runs.append([e])
    return tuple(tuple(r) for r in runs)


def decompose_by_scans(t: RawChain) -> Decomposition:
    """Reference for ``decompose.decompose``: split a finite chain into
    maximal same-component blocks and identify each as a finite Lukasiewicz
    chain.

    The same-component predicate must be an equivalence on the carrier minus
    the top with order-convex classes; both facts are checked rather than
    assumed, and violations signal corrupt tables.
    """
    report = check_axioms_by_scans(t)
    if not report.is_basic_hoop_chain:
        raise ValueError(f"axiom check failed: {report.failures!r}")
    blocks = component_runs(t)
    for block in blocks:
        for a in block:
            for b in block:
                if not in_one_component(t, a, b):
                    raise ValueError(
                        f"component predicate not transitive on block {block}"
                    )
    for i, bi in enumerate(blocks):
        for bj in blocks[i + 1:]:
            for a in bi:
                for b in bj:
                    if in_one_component(t, a, b):
                        raise ValueError(
                            f"blocks {bi} and {bj} are not separated"
                        )

    kinds = tuple(classify_component(t, block) for block in blocks)
    d = Decomposition(chain(kinds, bottom=t.bottom))
    assert d.blocks == blocks, t
    return d


def pairwise_bl_catalog(n_max: int) -> list:
    """Reference for ``enumerate_catalog("bl", ...)``: each candidate shape is
    kept unless ``class_includes`` both ways matches it with a kept one.
    The candidates are ``_bl_case_shapes`` plus, for each ``Wo m`` head over
    the trivial tail, the BL-case-3 shape ``[L m]|[Lo m]`` that it leaves
    out, so the comparison has that duplicate to drop."""
    heads = [Kind(FIN, m) for m in range(1, n_max + 1)]
    heads += [STD_UNIT]
    heads += [Kind(LEX, m) for m in range(1, n_max + 1)]
    out = [(None, "Trivial", 0)]
    for a in heads:
        for node, iname, pos in enumerate_catalog("bh", n_max):
            shapes = _bl_case_shapes(a, node)
            if a.tag == LEX and node is None:
                shapes.append(("BL-case-3", parse_class_expr(f"[L{a.k}]|[Lo{a.k}]")))
            for case, shape in shapes:
                if any(
                    class_includes(shape, other) and class_includes(other, shape)
                    for other, _, _ in out[1:]
                ):
                    continue
                out.append((shape, f"{case}({a!r})", f"{iname}:{pos}"))
    return out


def _first_equal(v, nodes) -> Verdict:
    """The first ``(name, node)`` of ``nodes`` whose class
    ``equals_by_witness_search`` finds equal to ``v``'s; failing that, no
    amalgamation, witnessed by the first node strictly above ``v``."""
    witness = None
    for name, node in nodes:
        verdict, wit = equals_by_witness_search(v, node)
        if verdict == "equal":
            return Verdict(ap=True, canonical=node, interval=name)
        if verdict == "v_strictly_smaller" and witness is None:
            witness = wit
    return Verdict(ap=False, witness=witness)


def classify_by_scan(v) -> Verdict:
    """Reference for ``classify_ap_bh`` (without designated bounds) and
    ``classify_ap_bl`` (with them): each interval node or BL case shape is
    compared with the variety in turn, where ``classify`` looks the
    variety's normal form up among them."""
    if not v.bottom:
        kinds = normalize_kinds(k for s in v.sums for it in s for k in it.kinds)
        if not kinds:
            return Verdict(ap=True, interval="Trivial")
        poset = interval(kinds)
        if poset is None:
            return Verdict(ap=False)
        return _first_equal(
            v, ((f"{poset.name}:{i}", node) for i, node in enumerate(poset.nodes))
        )
    tails = [s[1:] for s in v.sums if len(s) > 1]
    heads = normalize_kinds(s[0].kinds[0] for s in v.sums)
    if not heads:
        return Verdict(ap=True, interval="Trivial")
    if len(heads) > 1:
        return Verdict(ap=False, witness=chain((heads[0],), bottom=True))
    basic = Verdict(ap=True, interval="Trivial")
    if tails:
        basic = classify_by_scan(ClassExpr(tuple(tails)))
    if not basic.ap:
        return Verdict(ap=False, witness=basic.witness)
    return _first_equal(v, (
        (f"{case}({heads[0]!r};{basic.interval})", shape)
        for case, shape in _bl_case_shapes(heads[0], basic.canonical)
    ))


def recompute_cover_relation(p: IntervalPoset) -> tuple:
    """Re-derive the Hasse relation from pairwise class inclusions."""
    n = len(p.nodes)
    leq = [[class_includes(p.nodes[i], p.nodes[j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and leq[i][j] and leq[j][i]:
                raise AssertionError(f"nodes {i} and {j} coincide")
    covers = []
    for i in range(n):
        for j in range(n):
            if i == j or not leq[i][j]:
                continue
            if any(
                k != i and k != j and leq[i][k] and leq[k][j] for k in range(n)
            ):
                continue
            covers.append((i, j))
    return tuple(covers)


def table_quotients(t: RawChain):
    """Quotients by product-closed up-sets of a finite chain table."""
    out = []
    for lo in range(t.size):
        f = set(range(lo, t.size))
        if any(t.mul[x][y] not in f for x in f for y in f):
            continue
        classes = []
        done = set()
        for x in range(t.size):
            if x in done:
                continue
            cls = [
                y
                for y in range(t.size)
                if t.imp[x][y] in f and t.imp[y][x] in f
            ]
            classes.append(sorted(cls))
            done.update(cls)
        classes.sort(key=lambda c: c[0])
        reps = [c[0] for c in classes]
        idx = {x: i for i, c in enumerate(classes) for x in c}
        n = len(classes)
        mul = tuple(tuple(idx[t.mul[a][b]] for b in reps) for a in reps)
        imp = tuple(tuple(idx[t.imp[a][b]] for b in reps) for a in reps)
        out.append(RawChain(size=n, mul=mul, imp=imp, bottom=t.bottom))
    return out


def table_subalgebras(t: RawChain):
    """Sub-tables on operation-closed subsets (containing the unit, and the
    bottom when bounds are designated)."""
    base = list(range(t.size - 1))
    required = {t.size - 1} | ({0} if t.bottom else set())
    out = []
    for mask in product([False, True], repeat=len(base)):
        sub = sorted({e for e, keep in zip(base, mask) if keep} | required)
        if any(t.mul[x][y] not in sub or t.imp[x][y] not in sub
               for x in sub for y in sub):
            continue
        idx = {x: i for i, x in enumerate(sub)}
        mul = tuple(tuple(idx[t.mul[a][b]] for b in sub) for a in sub)
        imp = tuple(tuple(idx[t.imp[a][b]] for b in sub) for a in sub)
        out.append(RawChain(size=len(sub), mul=mul, imp=imp, bottom=t.bottom))
    return out


def oracle_membership(x, g) -> bool:
    """x belongs to the variety generated by g, both fully finite;
    isomorphism of chains is table equality under the order bijection."""
    tx = flatten(x)
    for q in table_quotients(flatten(g)):
        for s in table_subalgebras(q):
            if s == tx:
                return True
    return False


def small_chains(max_size: int, bottom: bool):
    """All structural chains of finite kinds up to a total element count."""
    out = [chain((), bottom=bottom)]

    def compositions(total):
        if total == 0:
            yield ()
            return
        for head in range(1, total + 1):
            for rest in compositions(total - head):
                yield (head,) + rest

    for size in range(1, max_size):
        for comp in compositions(size):
            out.append(chain(tuple(fin_luk(k) for k in comp), bottom=bottom))
    return out


RotValue = tuple  # (sign, local value of the base kind)


@dataclass(frozen=True)
class RotationChain:
    """The mirrored double of a cancellative chain: an MV-chain whose
    positive half is the base and whose negative half is its order dual.

    Elements are pairs (sign, x) with sign 1 above sign 0; (1, top) is the
    top and (0, top) the bottom.  The sign-0 half is ordered by the reverse
    of the base order.
    """

    base: Kind

    def __post_init__(self):
        if self.base.tag not in (CANC, TRIV):
            raise ValueError("rotation is defined here for cancellative bases only")

    @property
    def top(self) -> RotValue:
        return (1, local_top(self.base))

    @property
    def bottom(self) -> RotValue:
        return (0, local_top(self.base))

    def window(self, cap: int = 3) -> list:
        """All rotation elements with base values in [-cap, 0], ascending."""
        if self.base.tag == TRIV:
            return [self.bottom, self.top]
        vals = list(range(-cap, 1))
        neg = [(0, v) for v in reversed(vals)]
        pos = [(1, v) for v in vals]
        return neg + pos


def rot_op(r: RotationChain, op: str, p: RotValue, q: RotValue) -> RotValue:
    """Operation table of the disconnected rotation."""
    base = r.base
    (i, x), (j, y) = p, q

    def b(o, a, c):
        return component_op(base, o, a, c)

    if op in ("mul", "meet", "join"):
        # these three are commutative: normalize to i <= j
        if i > j:
            (i, x), (j, y) = (j, y), (i, x)
        if op == "join":
            if i == j == 1:
                return (1, b("join", x, y))
            if i == j == 0:
                return (0, b("meet", x, y))
            return (1, y)
        if op == "meet":
            if i == j == 1:
                return (1, b("meet", x, y))
            if i == j == 0:
                return (0, b("join", x, y))
            return (0, x)
        if i == j == 1:
            return (1, b("mul", x, y))
        if i == j == 0:
            return r.bottom
        return (0, b("imp", y, x))
    if op == "imp":
        if i == j == 1:
            return (1, b("imp", x, y))
        if i == j == 0:
            return (1, b("imp", y, x))
        if j < i:
            return (0, b("mul", x, y))
        return r.top
    raise ValueError(f"unknown operation {op!r}")


def rot_le(r: RotationChain, p: RotValue, q: RotValue) -> bool:
    (i, x), (j, y) = p, q
    if i != j:
        return i < j
    if i == 1:
        return x <= y
    return y <= x


def rotation_embed(p: RotValue, k: int) -> tuple:
    """The rotation of Z into Wo k: (1, b) -> (k, b), (0, b) -> (0, -b);
    bounds go to bounds."""
    sign, b = p
    return (k, b) if sign == 1 else (0, -b)
