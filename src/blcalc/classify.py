"""Decision procedures for the amalgamation property.

Varieties of totally ordered MV-algebras and Wajsberg hoops reduce to
absorption among their one-component generators.  For basic hoops the
component kinds occurring pin the variety into one of countably many finite
intervals (two, three, or thirteen nodes); the verdict is the node whose
chain class equals the input's, if any, looked up by its normal form
(``classes.canonical``).  Otherwise amalgamation fails, witnessed by a chain
of the first node above the input that the input does not hold.
BL-algebras reduce to the first components plus the basic-hoop
classification of the tails, matched against a fixed list of composite
shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .core import (
    CANC,
    CANC_Z,
    FIN,
    LEX,
    STD_UNIT,
    UNIT,
    Chain,
    Kind,
    ModeMismatchError,
    chain,
    same_bounds,
)
from .classes import (
    ClassExpr,
    Item,
    _first_outside,
    _reduced_sums,
    _sums_included,
    canonical,
    class_expr,
    class_includes,
    member,
    normalize_kinds,
    scan_count,
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
        transitive reduction of ``class_includes`` over pairs i < j, with
        each node reduced once."""
        bottom = same_bounds(*self.nodes)
        forms = [_reduced_sums(e) for e in self.nodes]
        below = {(i, j) for j, b in enumerate(forms)
                 for i, a in enumerate(forms[:j]) if _sums_included(a, b, bottom)}
        return tuple(sorted(
            (i, j) for i, j in below
            if not any((i, k) in below and (k, j) in below for k in range(i + 1, j))
        ))


def _plain(kind: Kind) -> Item:
    return Item((kind,))


def _star(*kinds: Kind) -> Item:
    return Item(kinds, star=True)


def _expr(*sums: tuple, bottom: bool = False) -> ClassExpr:
    return class_expr(sums, bottom)


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
        return IntervalPoset(name, (_expr((_plain(a),)), _expr((_star(a),))))
    if tags == (LEX,):
        wo = kinds[0]
        w = Kind(FIN, wo.k)
        return IntervalPoset(name, (
            _expr((_plain(wo),)),
            _expr((_star(w), _plain(wo))),
            _expr((_star(wo),)),
        ))
    if tags == (FIN, CANC):
        w, z = kinds
        nodes = (
            _expr((_plain(w),), (_plain(z),)),   # 0  [Wn]|[Z]
            _expr((_plain(w), _plain(z))),       # 1  [Wn Z]
            _expr((_plain(z), _plain(w))),       # 2  [Z Wn]
            _expr((_star(w),), (_plain(z),)),    # 3  [Wn*]|[Z]
            _expr((_plain(w),), (_star(z),)),    # 4  [Wn]|[Z*]
            _expr((_star(w), _plain(z))),        # 5  [Wn* Z]
            _expr((_plain(w), _star(z))),        # 6  [Wn Z*]
            _expr((_star(z), _plain(w))),        # 7  [Z* Wn]
            _expr((_plain(z), _star(w))),        # 8  [Z Wn*]
            _expr((_star(w),), (_star(z),)),     # 9  [Wn*]|[Z*]
            _expr((_star(w), _star(z))),         # 10 [Wn* Z*]
            _expr((_star(z), _star(w))),         # 11 [Z* Wn*]
            _expr((_star(w, z),)),               # 12 [(Wn Z)*]
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


def _classify_single(v: ClassExpr, bl: bool, prefix: str) -> Verdict:
    """Amalgamation for a union of one-component generator classes: it holds
    exactly when the normalized generator kinds start an interval, that is
    for one kind, or a finite kind with ``Z``."""
    if v.bottom != bl:
        raise ModeMismatchError(f"{v!r} has the wrong signature")
    for s in v.sums:
        if len(s) != 1 or s[0].star or len(s[0].kinds) != 1:
            raise ValueError(f"{v!r} is not a union of single-generator classes")
    kinds = normalize_kinds(s[0].kinds[0] for s in v.sums)
    if not kinds:
        return Verdict(ap=True, interval="Trivial")
    poset = interval(kinds)
    if poset is None:
        return Verdict(ap=False, witness=chain((kinds[0],), bottom=bl))
    return Verdict(ap=True, canonical=canonical(v), interval=prefix + poset.name[1:])


def classify_ap_mv(v: ClassExpr) -> Verdict:
    """Amalgamation for varieties of totally ordered MV-algebra generators:
    holds exactly for the one-chain-generated ones."""
    return _classify_single(v, bl=True, prefix="MV")


def classify_ap_wh(v: ClassExpr) -> Verdict:
    """Amalgamation for varieties of Wajsberg-hoop chain generators: a single
    generator closure, or a finite chain paired with the cancellative kind."""
    return _classify_single(v, bl=False, prefix="WH")


def _component_kinds(v: ClassExpr) -> tuple:
    return normalize_kinds(k for s in v.sums for it in s for k in it.kinds)


def _by_form(nodes) -> dict:
    """The map from each node's normal form to the first of the ``(name,
    node)`` pairs with that form, in the order of ``nodes``."""
    forms = {}
    for name, node in nodes:
        forms.setdefault(canonical(node), (name, node))
    return forms


def _look_up(v: ClassExpr, forms: dict) -> Verdict:
    """The node of the variety's normal form, which has its class; failing
    that, no amalgamation, witnessed by a chain of the first node above the
    variety that the variety does not hold (none when no node is above it).
    As the forms are one per class, no node above the variety then equals
    it, so the witness exists."""
    hit = forms.get(canonical(v))
    if hit is not None:
        name, node = hit
        return Verdict(ap=True, canonical=node, interval=name)
    above = next((node for _, node in forms.values() if class_includes(v, node)), None)
    return Verdict(ap=False, witness=None if above is None else _first_outside(above, v))


@lru_cache(maxsize=1024)
def _interval_forms(kinds: tuple) -> Optional[dict]:
    """The named nodes of ``interval(kinds)`` by form, or None when the
    kinds start no interval."""
    poset = interval(kinds)
    if poset is None:
        return None
    return _by_form(
        (f"{poset.name}:{idx}", node) for idx, node in enumerate(poset.nodes)
    )


def classify_ap_bh(v: ClassExpr) -> Verdict:
    """Amalgamation for varieties of basic hoops.

    The component kinds must normalize to an admissible generator set; the
    chain class must then coincide with one of the interval's nodes.  A
    strictly-between class inherits a witness from the first node above.
    """
    if v.bottom:
        raise ModeMismatchError("basic-hoop classification needs hoop input")
    kinds = _component_kinds(v)
    if not kinds:
        return Verdict(ap=True, interval="Trivial")
    forms = _interval_forms(kinds)
    if forms is None:
        return Verdict(ap=False)
    return _look_up(v, forms)


def _prepend(head_kind: Kind, node: Optional[ClassExpr]) -> tuple:
    """Sum classes of an MV head followed by a basic-hoop class's sums."""
    head = _plain(head_kind)
    if node is None:
        return ((head,),)
    return tuple((head,) + s for s in node.sums)


def _bl_case_shapes(a: Kind, basic_node: Optional[ClassExpr]) -> list:
    """Candidate chain-class shapes for a BL variety with first components
    generated by ``a`` and tail class ``basic_node``, an interval node.

    Over the trivial tail (``None``) only BL-case-2 is listed: BL-case-3
    would be ``[L m]|[Lo m]``, the class of ``[Lo m]``, as ``W m`` embeds
    into ``Wo m``."""
    shapes = [("BL-case-2", _expr(*_prepend(a, basic_node), bottom=True))]
    if a.tag in (FIN, UNIT) or basic_node is None:
        return shapes
    # lexicographic head: plain stacking, head-splitting, and the two
    # asymmetric union variants over a finite/cancellative tail pair
    m = Kind(FIN, a.k)
    shapes.append(
        ("BL-case-3", _expr(*_prepend(m, basic_node), (_plain(a),), bottom=True))
    )
    # the two-sum tails are nodes 0, 3, 4 and 9 of I(W n,Z), the W sum first
    if len(basic_node.sums) == 2:
        e1, e2 = (ClassExpr((s,)) for s in basic_node.sums)
        shapes.append(("BL-case-4", _expr(*_prepend(a, e1), *_prepend(m, e2), bottom=True)))
        shapes.append(("BL-case-4", _expr(*_prepend(m, e1), *_prepend(a, e2), bottom=True)))
    return shapes


@lru_cache(maxsize=1024)
def _bl_forms(head: Kind, tail: str, tail_node: Optional[ClassExpr]) -> dict:
    """The named case shapes of a head over the amalgamable tail node named
    ``tail``, by form."""
    return _by_form(
        (f"{case}({head!r};{tail})", shape)
        for case, shape in _bl_case_shapes(head, tail_node)
    )


def classify_ap_bl(v: ClassExpr) -> Verdict:
    """Amalgamation for varieties of BL-algebras: the first components must
    form a one-chain-generated MV class, the tails an amalgamable basic-hoop
    class, and the whole chain class one of the composite case shapes."""
    if not v.bottom:
        raise ModeMismatchError("BL classification needs designated-bounds input")
    sums = v.sums
    tails = tuple(s[1:] for s in sums if len(s) > 1)
    basic = ClassExpr(tails) if tails else None
    heads = normalize_kinds(s[0].kinds[0] for s in sums)
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

    return _look_up(v, _bl_forms(heads[0], basic_verdict.interval, basic_verdict.canonical))


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
    inclusion by the pumping bound that ``classes._first_outside`` proves.
    The check guards ``enumerate_catalog``'s distinctness argument; it goes
    once the benchmark stops charging peak memory per query, which a faster
    catalog raises.
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
