"""Decision procedures for the amalgamation property.

Varieties of totally ordered MV-algebras and Wajsberg hoops reduce to
absorption among their one-component generators.  For basic hoops the
component kinds occurring pin the variety into one of countably many finite
intervals (two, three, or thirteen nodes); the verdict is the node whose
chain class equals the input's, if any.  BL-algebras reduce to the first
components plus the basic-hoop classification of the tails, matched against
a fixed list of composite shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import CANC, CANC_Z, FIN, LEX, STD_UNIT, TRIV, UNIT, Chain, Kind, chain
from .classes import (
    Atom,
    ClassExpr,
    Item,
    SumClass,
    class_expr,
    class_includes,
    component_member,
    member,
    scan_count,
    vfc_equals,
    witness_basis,
)


@dataclass(frozen=True)
class Verdict:
    ap: bool
    canonical: Optional[ClassExpr] = None
    interval: Optional[str] = None
    witness: Optional[Chain] = None

    def to_json(self) -> dict:
        from .dsl import pretty_chain, pretty_class_expr

        return {
            "ap": self.ap,
            "canonical": pretty_class_expr(self.canonical) if self.canonical else None,
            "interval": self.interval,
            "witness": pretty_chain(self.witness) if self.witness else None,
        }


@dataclass(frozen=True)
class IntervalPoset:
    name: str
    nodes: tuple  # ClassExpr per node, bottom-up: no node lies in an earlier one

    @property
    def covers(self) -> tuple:
        """The Hasse relation as sorted (lower, upper) index pairs: the
        transitive reduction of ``class_includes`` over pairs i < j."""
        below = {(i, j) for j, b in enumerate(self.nodes)
                 for i, a in enumerate(self.nodes[:j]) if class_includes(a, b)}
        return tuple(sorted(
            (i, j) for i, j in below
            if not any((i, k) in below and (k, j) in below for k in range(i + 1, j))
        ))


def _plain(kind: Kind, bottom: bool = False) -> Item:
    return Item((Atom(kind, bottom),))


def _star(kind: Kind) -> Item:
    return Item((Atom(kind),), star=True)


def _gstar(*kinds: Kind) -> Item:
    return Item(tuple(Atom(k) for k in kinds), star=True)


def _sum(*items: Item) -> SumClass:
    return SumClass(tuple(items))


def _expr(*sums: SumClass) -> ClassExpr:
    return class_expr(sums)


def interval(kinds: tuple) -> Optional[IntervalPoset]:
    """The interval poset of a normalized tuple of generator kinds, or None
    when the kinds start no interval.

    One ``W``, ``Z`` or ``U`` kind gives two nodes, one ``Wo`` kind three,
    and ``W n`` with ``Z`` thirteen nodes.
    """
    name = "I(" + ",".join(map(repr, kinds)) + ")"
    tags = tuple(k.tag for k in kinds)
    if tags in ((FIN,), (CANC,), (UNIT,)):
        a = kinds[0]
        return IntervalPoset(name, (_expr(_sum(_plain(a))), _expr(_sum(_star(a)))))
    if tags == (LEX,):
        wo = kinds[0]
        w = Kind(FIN, wo.k)
        return IntervalPoset(name, (
            _expr(_sum(_plain(wo))),
            _expr(_sum(_star(w), _plain(wo))),
            _expr(_sum(_star(wo))),
        ))
    if tags == (FIN, CANC):
        w, z = kinds
        nodes = (
            _expr(_sum(_plain(w)), _sum(_plain(z))),        # 0  [Wn]|[Z]
            _expr(_sum(_plain(w), _plain(z))),              # 1  [Wn Z]
            _expr(_sum(_plain(z), _plain(w))),              # 2  [Z Wn]
            _expr(_sum(_star(w)), _sum(_plain(z))),         # 3  [Wn*]|[Z]
            _expr(_sum(_plain(w)), _sum(_star(z))),         # 4  [Wn]|[Z*]
            _expr(_sum(_star(w), _plain(z))),               # 5  [Wn* Z]
            _expr(_sum(_plain(w), _star(z))),               # 6  [Wn Z*]
            _expr(_sum(_star(z), _plain(w))),               # 7  [Z* Wn]
            _expr(_sum(_plain(z), _star(w))),               # 8  [Z Wn*]
            _expr(_sum(_star(w)), _sum(_star(z))),          # 9  [Wn*]|[Z*]
            _expr(_sum(_star(w), _star(z))),                # 10 [Wn* Z*]
            _expr(_sum(_star(z), _star(w))),                # 11 [Z* Wn*]
            _expr(_sum(_gstar(w, z))),                      # 12 [(Wn Z)*]
        )
        return IntervalPoset(name, nodes)
    return None


def interval_by_name(text: str) -> IntervalPoset:
    """Resolve a name such as I(W2), I(Z), I(Wo2) or I(W2,Z): the generator
    kinds between the parentheses, comma-separated, in component syntax."""
    from .dsl import DSLError, parse_chain_list

    t = text.replace(" ", "")
    poset = None
    if t.startswith("I(") and t.endswith(")"):
        try:
            chains = parse_chain_list(t[2:-1])
        except DSLError:
            chains = []
        if chains and all(len(c.components) == 1 and not c.bottom for c in chains):
            poset = interval(tuple(c.components[0] for c in chains))
    if poset is None:
        raise ValueError(f"unknown interval {text!r}")
    return poset


def emit_poset(p: IntervalPoset, fmt: str) -> str:
    """Render an interval poset as DOT (edges bottom-to-top) or JSON."""
    from .dsl import pretty_class_expr

    labels = [pretty_class_expr(e) for e in p.nodes]
    if fmt == "dot":
        lines = [f'digraph "{p.name}" {{', "  rankdir=BT;"]
        for i, lab in enumerate(labels):
            lines.append(f'  n{i} [label="{lab}"];')
        for lo, hi in p.covers:
            lines.append(f"  n{lo} -> n{hi};")
        lines.append("}")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        import json

        return json.dumps(
            {
                "schema": "blcalc/1",
                "interval": p.name,
                "nodes": labels,
                "covers": [list(c) for c in p.covers],
            },
            indent=2,
            sort_keys=True,
        )
    raise ValueError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# Kind-set normalization (generator absorption)
# ---------------------------------------------------------------------------


def normalize_kinds(kinds) -> tuple:
    """Drop generators absorbed by another's closure; keep the maximal ones."""
    ks = {k for k in kinds if k.tag != TRIV}
    keep = [
        a for a in ks if not any(b != a and component_member(a, b) for b in ks)
    ]
    return tuple(sorted(keep, key=lambda k: k.sort_key()))


def _classify_single(v: ClassExpr, bl: bool, prefix: str) -> Verdict:
    """Amalgamation for a union of one-component generator classes: it holds
    exactly when the normalized generator kinds start an interval, that is
    for one kind, or a finite kind with ``Z``."""
    if v.bl_mode != bl:
        raise ValueError(f"{v!r} has the wrong signature")
    for s in v.sums:
        if len(s.items) != 1 or s.items[0].star or len(s.items[0].atoms) != 1:
            raise ValueError(f"{v!r} is not a union of single-generator classes")
    kinds = normalize_kinds(s.items[0].atoms[0].kind for s in v.sums)
    if not kinds:
        return Verdict(ap=True, interval="Trivial")
    poset = interval(kinds)
    if poset is None:
        return Verdict(ap=False, witness=chain((kinds[0],), bottom=bl))
    return Verdict(
        ap=True,
        canonical=_expr(*(_sum(_plain(k, bottom=bl)) for k in kinds)),
        interval=prefix + poset.name[1:],
    )


def classify_ap_mv(v: ClassExpr) -> Verdict:
    """Amalgamation for varieties of totally ordered MV-algebra generators:
    holds exactly for the one-chain-generated ones."""
    return _classify_single(v, bl=True, prefix="MV")


def classify_ap_wh(v: ClassExpr) -> Verdict:
    """Amalgamation for varieties of Wajsberg-hoop chain generators: a single
    generator closure, or a finite chain paired with the cancellative kind."""
    return _classify_single(v, bl=False, prefix="WH")


def _component_kinds(v: ClassExpr) -> tuple:
    return normalize_kinds(
        a.kind for s in v.sums for it in s.items for a in it.atoms
    )


def _scan_nodes(v: ClassExpr, nodes) -> Verdict:
    """The first ``(interval name, node)`` whose class equals the variety's;
    failing that, no amalgamation, witnessed by the first node strictly
    above the variety."""
    witness = None
    for name, node in nodes:
        verdict, wit = vfc_equals(v, node)
        if verdict == "equal":
            return Verdict(ap=True, canonical=node, interval=name)
        if verdict == "v_strictly_smaller" and witness is None:
            witness = wit
    return Verdict(ap=False, witness=witness)


def classify_ap_bh(v: ClassExpr) -> Verdict:
    """Amalgamation for varieties of basic hoops.

    The component kinds must normalize to an admissible generator set; the
    chain class must then coincide with one of the interval's nodes.  A
    strictly-between class inherits a witness from the smallest node above.
    """
    if v.bl_mode:
        raise ValueError("basic-hoop classification needs hoop input")
    kinds = _component_kinds(v)
    if not kinds:
        return Verdict(ap=True, interval="Trivial")
    poset = interval(kinds)
    if poset is None:
        return Verdict(ap=False)
    return _scan_nodes(
        v, ((f"{poset.name}:{idx}", node) for idx, node in enumerate(poset.nodes))
    )


def _prepend(atom_kind: Kind, node: Optional[ClassExpr]) -> tuple:
    """Sum classes of an MV head followed by a basic-hoop class's sums."""
    head = _plain(atom_kind, bottom=True)
    if node is None:
        return (_sum(head),)
    return tuple(SumClass((head,) + s.items) for s in node.sums)


def _bl_case_shapes(a: Kind, basic_node: Optional[ClassExpr]) -> list:
    """Candidate chain-class shapes for a BL variety with first components
    generated by ``a`` and tail class ``basic_node``.

    Over the trivial tail (``None``) only BL-case-2 is listed: BL-case-3
    would be ``[L m]|[Lo m]``, the class of ``[Lo m]``, as ``W m`` embeds
    into ``Wo m``."""
    shapes = [("BL-case-2", _expr(*_prepend(a, basic_node)))]
    if a.tag in (FIN, UNIT) or basic_node is None:
        return shapes
    # lexicographic head: plain stacking, head-splitting, and the two
    # asymmetric union variants over a finite/cancellative tail pair
    m = Kind(FIN, a.k)
    shapes.append(
        ("BL-case-3", _expr(*(_prepend(m, basic_node) + (_sum(_plain(a, True)),))))
    )
    if len(basic_node.sums) == 2:
        tags = [s.items[0].atoms[0].kind.tag for s in basic_node.sums]
        if len(basic_node.sums[0].items) == 1 and len(basic_node.sums[1].items) == 1:
            if set(tags) == {FIN, CANC}:
                k_fin = basic_node.sums[tags.index(FIN)]
                k_canc = basic_node.sums[tags.index(CANC)]
                e1 = ClassExpr((k_fin,))
                e2 = ClassExpr((k_canc,))
                shapes.append(
                    ("BL-case-4", _expr(*(_prepend(a, e1) + _prepend(m, e2))))
                )
                shapes.append(
                    ("BL-case-4", _expr(*(_prepend(m, e1) + _prepend(a, e2))))
                )
    return shapes


def classify_ap_bl(v: ClassExpr) -> Verdict:
    """Amalgamation for varieties of BL-algebras: the first components must
    form a one-chain-generated MV class, the tails an amalgamable basic-hoop
    class, and the whole chain class one of the composite case shapes."""
    if not v.bl_mode:
        raise ValueError("BL classification needs designated-bounds input")
    sums = v.sums
    tails = [SumClass(s.items[1:]) for s in sums if len(s.items) > 1]
    basic = ClassExpr(tuple(tails)) if tails else None
    heads = normalize_kinds(s.items[0].atoms[0].kind for s in sums)
    if not heads:
        return Verdict(ap=True, interval="Trivial")
    if len(heads) > 1:
        return Verdict(ap=False, witness=chain((heads[0],), bottom=True))

    if basic is None:
        basic_verdict = Verdict(ap=True, interval="Trivial")
    else:
        basic_verdict = classify_ap_bh(basic)
    if not basic_verdict.ap:
        return Verdict(ap=False, witness=basic_verdict.witness)

    tail = basic_verdict.interval or ""
    return _scan_nodes(
        v,
        (
            (f"{case}({heads[0]!r};{tail})", shape)
            for case, shape in _bl_case_shapes(heads[0], basic_verdict.canonical)
        ),
    )


# ---------------------------------------------------------------------------
# Catalog enumeration
# ---------------------------------------------------------------------------


def _check_distinct_classes(shapes) -> None:
    """Raise ``AssertionError`` when two of ``shapes`` have the same class.

    A class is keyed by the int whose bit ``i`` says whether the ``i``-th
    pooled chain is a member.  The pool is ``witness_basis(shape, n)`` of
    every shape, with ``n`` the largest ``scan_count`` among them.  Equal
    classes have equal signatures, and equal signatures mean equal classes:
    each shape's own chains at ``n`` lie in the pool, so each shape holds
    the other's, and as ``n`` is at least its own scan count, that is
    inclusion by the rule of ``classes._first_outside``.  The check guards
    ``enumerate_catalog``'s distinctness argument; it goes once the
    benchmark stops charging peak memory per query, which a faster catalog
    raises.
    """
    n = max(scan_count(shape) for shape in shapes)
    pool = {}
    for shape in shapes:
        for b in witness_basis(shape, n):
            pool.setdefault((b.components, b.bottom), b)
    pool = list(pool.values())
    seen = {}
    for shape in shapes:
        key = 0
        for i, b in enumerate(pool):
            if member(b, shape):
                key |= 1 << i
        if key in seen:
            raise AssertionError(f"{shape!r} and {seen[key]!r} share a signature")
        seen[key] = shape


def enumerate_catalog(mode: str, n_max: int) -> list:
    """All amalgamation classes whose ``W``/``Wo`` parameters are at most
    ``n = n_max``, in hoop heads and tails alike.

    Each entry is (expression or None for the trivial variety, interval name,
    node position).  The hoop catalog has 5 parameterless entries plus 18 per
    finite parameter.  The BL catalog is the trivial entry, then the shapes
    of ``_bl_case_shapes`` for each of the ``2n + 1`` heads over each hoop
    entry: BL-case-2 for every head and entry, ``(2n + 1)(18n + 5)``;
    BL-case-3 for the ``n`` ``Wo`` heads over the non-trivial entries,
    ``n(18n + 4)``; and BL-case-4 for them over the 4 two-sum nodes of each
    ``I(W k,Z)``, two shapes each, ``8n²``.  In all ``62n² + 32n + 6``.

    They are pairwise distinct classes.  A class fixes its head, the largest
    kind of its first components, and its tails, which form the hoop entry;
    hoop entries are pairwise distinct.  Under one ``Wo m`` head and entry,
    the tails after an ``Lo m`` are the entry (BL-case-2), the trivial chain
    alone (BL-case-3) or one of its two sum classes (BL-case-4).
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if mode == "bh":
        entries = [(None, "Trivial", 0)]
        kind_lists = [(CANC_Z,), (STD_UNIT,)]
        for n in range(1, n_max + 1):
            w = Kind(FIN, n)
            kind_lists += [(w,), (Kind(LEX, n),), (w, CANC_Z)]
        for p in map(interval, kind_lists):
            entries.extend((node, p.name, i) for i, node in enumerate(p.nodes))
        return entries
    if mode == "bl":
        bh_entries = enumerate_catalog("bh", n_max)
        heads = [Kind(FIN, m) for m in range(1, n_max + 1)]
        heads += [STD_UNIT]
        heads += [Kind(LEX, m) for m in range(1, n_max + 1)]
        candidates = [
            (shape, f"{case}({a!r})", f"{iname}:{pos}")
            for a in heads
            for node, iname, pos in bh_entries
            for case, shape in _bl_case_shapes(a, node)
        ]
        _check_distinct_classes([shape for shape, _, _ in candidates])
        return [(None, "Trivial", 0)] + candidates
    raise ValueError(f"unknown mode {mode!r}")
