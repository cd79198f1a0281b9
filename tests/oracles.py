"""Independent oracles shared by the test modules.

The table-level oracles work directly on raw operation tables and never call
the structural engine they are used to check; the scan axiom check runs the
cubic associativity and residuation scans that ``check_axioms`` skips on
recognised ordinal sums, the chain-op flattening evaluates every entry
through ``chain_op`` instead of tabulating the rules of ``core.RunForm``,
as every table of the package does, and the scan decomposition runs the
exhaustive axiom check and per-block tests that ``decompose`` replaces
with one table comparison.  The window oracles evaluate maps point by point
instead of composing them or reading legality off their data.  The pair
search tests every pair of legs of every target, as the codomain-guided
walk and the composite join of the brute-force search avoid doing, and the
greedy kind embedding decides each finished target on its own, where
``amalgam.universe_chains`` carries the greedy match down the walk.  The catalog
oracle drops a candidate whose class equals a kept one's, compared pair by
pair, where ``classify`` lists classes distinct by construction, and the
enumerated inclusion tests every chain
of a class up to an index, where ``classes.class_includes`` tests one
chain per sum class.  The kind join is the
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
the lexicographic chains of ``core.component_op``.  The element closure,
sweeps and consequence compute every vector entry through ``chain_op`` and
every valuation through ``eval_formula``, one at a time, where ``formulas``
computes on the integer indices of ``core.RunForm``.
"""

import math
from dataclasses import dataclass
from itertools import product

from blcalc.amalgam import (
    Amalgam,
    CollapsingMap,
    UnsupportedShapeError,
    spans_commute,
    universe_chains,
)
from blcalc.classes import ModeMismatchError, class_includes, component_member, member, vfc_equals
from blcalc.classify import (
    IntervalPoset,
    _bl_case_shapes,
    enumerate_catalog,
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
    Kind,
    TOP,
    RawChain,
    bottom_element,
    chain,
    chain_op,
    component_op,
    element,
    enumerate_elements,
    fin_luk,
    in_one_component,
    kind_embeds,
    lex_omega,
    local_bottom,
    local_top,
    order_le,
    ordinal_sum_table,
)
from blcalc.decompose import (
    Decomposition,
    finite_elements,
    flatten,
)
from blcalc.dsl import parse_class_expr
from blcalc.formulas import (
    BinOp,
    ConsequenceResult,
    Const,
    Var,
    eval_formula,
    formula_vars,
)
from blcalc.maps import (
    ChainMap,
    apply_map,
    enumerate_embeddings,
    filter_contains,
    filters,
    quotient_by_filter,
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
                am = Amalgam(target=target, left=psi1, right=psi2)
                if spans_commute(s, am):
                    return am
    return None


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
        raise ValueError("designated-bounds mismatch between source and target")
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
    if any(component_member(comps[ci], a.kind) for a in item.atoms):
        asg.append(ii)
        yield from _assignments(comps, items, ci + 1, ii if item.star else ii + 1, asg)
        asg.pop()
    yield from _assignments(comps, items, ci, ii + 1, asg)


def assignments_by_backtracking(c, s):
    """Reference for ``classes.match_assignments``: every assignment of the
    chain's components to the sum's items, in backtracking order; with
    designated bounds the head takes the first component and the rest are
    matched against the other items.  The trivial chain has the empty
    assignment."""
    items, comps = s.items, c.components
    if not items[0].atoms[0].bottom or not comps:
        yield from _assignments(comps, items, 0, 0, [])
    elif component_member(comps[0], items[0].atoms[0].kind):
        for rest in _assignments(comps[1:], items[1:], 0, 0, []):
            yield (0,) + tuple(i + 1 for i in rest)


def member_by_assignments(c, e) -> bool:
    """Reference for ``classes.member``: some sum class has an assignment."""
    if c.bottom != e.bl_mode:
        raise ModeMismatchError(f"{c!r} and {e!r} disagree on designated bounds")
    return any(next(assignments_by_backtracking(c, s), None) is not None for s in e.sums)


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
                if a.bl_mode and not kinds and not k.bounded:
                    continue
                c = chain(kinds + (k,), bottom=a.bl_mode)
                if member(c, a):
                    if not member(c, b):
                        return False
                    grown.append(c.components)
        frontier = grown
    return True


def universe_chains_by_filter(e, max_index, max_k):
    """Reference for ``amalgam.universe_chains``: every product of the kinds
    some atom admits, kept when ``member_by_assignments`` holds, after the
    trivial chain of the signature."""
    atoms = [atom.kind for s in e.sums for item in s.items for atom in item.atoms]
    candidates = (
        [fin_luk(k) for k in range(1, max_k + 1)]
        + [lex_omega(k) for k in range(1, max_k + 1)]
        + [CANC_Z, STD_UNIT]
    )
    kinds = [k for k in candidates if any(component_member(k, a) for a in atoms)]
    yield chain((), bottom=e.bl_mode)
    for length in range(1, max_index + 1):
        for combo in product(kinds, repeat=length):
            if e.bl_mode and not combo[0].bounded:
                continue
            c = chain(combo, bottom=e.bl_mode)
            if member_by_assignments(c, e):
                yield c


def join_kinds_by_cases(b: Kind, c: Kind) -> Kind:
    """Reference for ``amalgam._join_kinds``: the least representable kind
    both arguments embed into, case by case."""
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
    raise UnsupportedShapeError(f"no representable join of {b} and {c}")


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
    smallest-first order, with every vector a tuple of elements computed
    through ``chain_op``."""
    points = valuation_points(shared, gens)
    chains = [gens[gi] for gi, _ in points]
    seeds = [(tuple(TOP for _ in points), Const("1"))]
    if gens and gens[0].bottom:
        seeds.append((tuple(bottom_element(g) for g in chains), Const("0")))
    for vi, name in enumerate(shared):
        seeds.append((tuple(combo[vi] for _, combo in points), Var(name)))

    queue = []
    seen = set()
    for vec, term in seeds:
        if vec not in seen:
            seen.add(vec)
            queue.append((vec, term))
            yield vec, term
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
                vec = tuple(chain_op(g, op, x, y) for g, x, y in zip(chains, a, b))
                if vec not in seen:
                    seen.add(vec)
                    term = BinOp(op, ta, tb)
                    queue.append((vec, term))
                    yield vec, term
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

    The block plus the top must carry the table ``ordinal_sum_table([m])``,
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
    luk = ordinal_sum_table([len(block)])
    for i, x in enumerate(elems):
        for j, y in enumerate(elems):
            for op in ("mul", "imp"):
                if getattr(t, op)[x][y] != elems[getattr(luk, op)[i][j]]:
                    raise ValueError(
                        f"block {block} is not a Wajsberg component: {op} at ({x},{y})"
                    )
    return kind


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
    n = t.size
    if n == 1:
        return Decomposition(source=t, chain=chain((), bottom=t.bottom), blocks=())

    blocks = []
    current = [0]
    for e in range(1, n - 1):
        if in_one_component(t, current[-1], e):
            current.append(e)
        else:
            blocks.append(tuple(current))
            current = [e]
    blocks.append(tuple(current))

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
    return Decomposition(
        source=t,
        chain=chain(kinds, bottom=t.bottom),
        blocks=tuple(blocks),
    )


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
