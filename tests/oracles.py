"""Independent oracles shared by the test modules.

The table-level oracles work directly on raw operation tables and never call
the structural engine they are used to check; the scan axiom check runs the
cubic associativity and residuation scans that ``check_axioms`` skips on
recognised ordinal sums, the chain-op flattening evaluates every entry
through ``chain_op`` instead of the integer formulas, and the scan
decomposition runs the exhaustive axiom check and per-block tests that
``decompose`` replaces with one table comparison.  The window oracles evaluate maps point by point
instead of composing them or reading legality off their data.  The pair
search tests every pair of legs of every target, as the kind pre-filter and
the composite join of the brute-force search avoid doing.  The catalog
oracles compare classes pair by pair, as the signature dedupe and the
per-scan witness basis of ``classify`` avoid doing.  The kind join is the
case table that ``amalgam._join_kinds`` reads off the local embeddings.
"""

import math
from itertools import product

from blcalc.amalgam import (
    Amalgam,
    CollapsingMap,
    UnsupportedShapeError,
    spans_commute,
    universe_chains,
)
from blcalc.classes import class_includes, vfc_equals
from blcalc.classify import Verdict, _bl_case_shapes, enumerate_catalog
from blcalc.core import (
    CANC,
    CANC_Z,
    FIN,
    LEX,
    STD_UNIT,
    UNIT,
    AxiomReport,
    Kind,
    RawChain,
    chain,
    chain_op,
    element,
    enumerate_elements,
    fin_luk,
    lex_omega,
    local_bottom,
    order_le,
)
from blcalc.decompose import (
    Decomposition,
    classify_component,
    finite_elements,
    flatten,
    same_component,
)
from blcalc.maps import (
    ChainMap,
    apply_map,
    enumerate_embeddings,
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
        if same_component(t, current[-1], e):
            current.append(e)
        else:
            blocks.append(tuple(current))
            current = [e]
    blocks.append(tuple(current))

    for block in blocks:
        for a in block:
            for b in block:
                if not same_component(t, a, b):
                    raise ValueError(
                        f"component predicate not transitive on block {block}"
                    )
    for i, bi in enumerate(blocks):
        for bj in blocks[i + 1:]:
            for a in bi:
                for b in bj:
                    if same_component(t, a, b):
                        raise ValueError(
                            f"blocks {bi} and {bj} are not separated"
                        )

    kinds = tuple(classify_component(t, block) for block in blocks)
    return Decomposition(
        source=t,
        chain=chain(kinds, bottom=t.bottom),
        blocks=tuple(blocks),
    )


def pairwise_bl_catalog(n_max: int, m_max=None) -> list:
    """Reference for ``enumerate_catalog("bl", ...)``: each candidate shape is
    kept unless ``class_includes`` both ways matches it with a kept one."""
    if m_max is None:
        m_max = n_max
    heads = [Kind(FIN, m) for m in range(1, m_max + 1)]
    heads += [STD_UNIT]
    heads += [Kind(LEX, m) for m in range(1, m_max + 1)]
    out = [(None, "Trivial", 0)]
    for a in heads:
        for node, iname, pos in enumerate_catalog("bh", n_max):
            for case, shape in _bl_case_shapes(a, node):
                if any(
                    class_includes(shape, other) and class_includes(other, shape)
                    for other, _, _ in out[1:]
                ):
                    continue
                out.append((shape, f"{case}({a!r})", f"{iname}:{pos}"))
    return out


def scan_nodes_per_node(v, nodes) -> Verdict:
    """Reference for ``classify._scan_nodes``: one ``vfc_equals`` per node,
    each building the variety's witness basis afresh."""
    witness = None
    for name, node in nodes:
        verdict, wit = vfc_equals(v, node)
        if verdict == "equal":
            return Verdict(ap=True, canonical=node, interval=name)
        if verdict == "v_strictly_smaller" and witness is None:
            witness = wit
    return Verdict(ap=False, witness=witness)


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
