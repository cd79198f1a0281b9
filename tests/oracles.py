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
case table that ``amalgam._join_kinds`` reads off ``core.kind_embeds``.
The filter-definition essentiality test evaluates the congruence of the
target's smallest nontrivial filter on windows of image points, where
``maps.is_essential_embedding`` reads essentiality off the map's last
component.  The cover recomputation re-derives an interval's Hasse relation
from pairwise class inclusions instead of reading the stored covers.  The
component classifier compares a block entry by entry with the finite
Lukasiewicz table, as ``decompose`` does with one whole-table comparison.
The rotation table is the disconnected rotation of a cancellative kind,
written as its own case table, against which acceptance criterion 4 checks
the lexicographic chains of ``core.component_op``.
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
from blcalc.classes import class_includes, vfc_equals
from blcalc.classify import (
    IntervalPoset,
    Verdict,
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
    RawChain,
    chain,
    chain_op,
    component_op,
    element,
    enumerate_elements,
    fin_luk,
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
    same_component,
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


def pairwise_bl_catalog(n_max: int) -> list:
    """Reference for ``enumerate_catalog("bl", ...)``: each candidate shape is
    kept unless ``class_includes`` both ways matches it with a kept one."""
    heads = [Kind(FIN, m) for m in range(1, n_max + 1)]
    heads += [STD_UNIT]
    heads += [Kind(LEX, m) for m in range(1, n_max + 1)]
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
