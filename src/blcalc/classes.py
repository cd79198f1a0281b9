"""Classes of finite-index chains described by bracket/star expressions, and
the membership engine for finitely generated varieties.

A class expression is a union of sum classes; a sum class is a sequence of
items, each either a single generator atom (consuming at most one non-trivial
component), a starred atom (any number), or a starred group (any number, each
drawn from any atom of the group).  An atom matches a component exactly when
the component lies in the atom's generator closure: when it embeds into the
atom's kind by ``core.kind_embeds``, or the atom is ``U``.

Membership is one greedy scan per sum class (``greedy_step``);
``match_assignments`` lists every assignment, for the constructive amalgam.
Inclusion of one class in another is decided by ``_first_outside`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, Optional

from .core import TRIV, TRIVIAL, UNIT, Chain, Kind, chain, kind_embeds


class ModeMismatchError(ValueError):
    """A chain with designated bounds tested against a hoop class or vice versa."""


@dataclass(frozen=True)
class Atom:
    kind: Kind
    bottom: bool = False  # designated-bounds atom; legal only leading a sum


@dataclass(frozen=True)
class Item:
    atoms: tuple
    star: bool = False


@dataclass(frozen=True)
class SumClass:
    items: tuple


@dataclass(frozen=True)
class ClassExpr:
    sums: tuple

    @property
    def bl_mode(self) -> bool:
        return self.sums[0].items[0].atoms[0].bottom

    def __repr__(self):
        from .dsl import pretty_class_expr

        return pretty_class_expr(self)


def class_expr(sums) -> ClassExpr:
    """Validated constructor: bounds atoms appear exactly as unstarred heads,
    uniformly across the union."""
    sums = tuple(sums)
    if not sums:
        raise ValueError("a class expression needs at least one sum class")
    modes = set()
    for s in sums:
        if not s.items:
            raise ValueError("a sum class needs at least one item")
        head = s.items[0]
        head_bottom = len(head.atoms) == 1 and head.atoms[0].bottom
        modes.add(head_bottom)
        if head_bottom and head.star:
            raise ValueError("a designated-bounds atom cannot be starred")
        for i, item in enumerate(s.items):
            for a in item.atoms:
                if a.bottom and not (i == 0 and len(item.atoms) == 1):
                    raise ValueError(
                        "designated-bounds atoms are legal only leading a sum"
                    )
    if len(modes) != 1:
        raise ValueError("all sum classes must agree on designated bounds")
    return ClassExpr(sums)


def component_member(kind: Kind, gen: Kind) -> bool:
    """Membership of a component kind in the generator closure of another.

    The trivial kind lies in every closure, and a non-trivial kind lies in
    the closure of a kind it embeds into.  The unit interval's closure holds
    every representable kind besides: the cancellative and lexicographic
    kinds do not embed into ``U`` but live in its ultrapowers, and are
    adopted as rule-table facts, checked elsewhere only at the finite level.
    """
    return kind.tag == TRIV or gen.tag == UNIT or kind_embeds(kind, gen)


def _item_matches(comp: Kind, item: Item) -> bool:
    for a in item.atoms:
        if component_member(comp, a.kind):
            return True
    return False


def greedy_step(items: tuple, p: int, comp: Kind) -> Optional[int]:
    """The scan position after one more component: it takes the leftmost
    item at or after ``p`` that admits it, past which a plain item advances
    and a starred one does not; ``None`` when no item does.  A designated-
    bounds head must take the first component, the only one scanned from 0.
    """
    for i in range(p, len(items)):
        item = items[i]
        if _item_matches(comp, item):
            return i if item.star else i + 1
        if item.atoms[0].bottom:
            return None
    return None


def _match(comps: tuple, items: tuple, ci: int, ii: int, asg: list) -> Iterator[tuple]:
    """Backtracking matcher; yields item-index assignments per component.

    A plain item consumes at most one matching component (its other
    instances may be trivial); a starred item consumes any number.  A
    designated-bounds head is never skipped: it takes the first component.
    """
    if ci == len(comps):
        yield tuple(asg)
        return
    if ii == len(items):
        return
    item = items[ii]
    if _item_matches(comps[ci], item):
        asg.append(ii)
        yield from _match(comps, items, ci + 1, ii if item.star else ii + 1, asg)
        asg.pop()
    if not item.atoms[0].bottom:
        yield from _match(comps, items, ci, ii + 1, asg)


def match_assignments(c: Chain, s: SumClass) -> Iterator[tuple]:
    """Assignments of the chain's components to the sum's items, if any."""
    if c.components or not c.bottom:
        yield from _match(c.components, s.items, 0, 0, [])


def member(c: Chain, e: ClassExpr) -> bool:
    """Whether a structural chain belongs to the class: whether one greedy
    scan (``greedy_step``) of some sum class takes all its components.

    Greedy is exact.  By induction, its position never passes that of any
    valid assignment: each component takes an item no later than the
    assignment's, which leaves a position no later.  With designated bounds
    the head must take a component, so the trivial chain is no member.
    """
    if c.bottom != e.bl_mode:
        raise ModeMismatchError(
            f"{c!r} and {e!r} disagree on designated bounds"
        )
    comps = c.components
    if not comps:
        return not c.bottom
    for s in e.sums:
        items, p = s.items, 0
        for comp in comps:
            p = greedy_step(items, p, comp)
            if p is None:
                break
        else:
            return True
    return False


# ---------------------------------------------------------------------------
# Finitely generated varieties at the finite-index-chain level
# ---------------------------------------------------------------------------


def generated_by(*chains: Chain) -> ClassExpr:
    """The variety generated by finitely many chains.

    Its finite-index chains are those that embed, component by component and
    first-to-first when bounds are designated, into a quotient of a
    generator.  A quotient only drops a suffix of components or degrades a
    lexicographic cut ``Wo k`` to ``W k``, which the closure of ``Wo k``
    already holds, so each generator becomes one unstarred sum with a plain
    item per component.  The trivial chain lies in every variety; a variety
    of trivial generators alone is ``[T]``.
    """
    if not chains:
        raise ValueError("need at least one generator")
    modes = {g.bottom for g in chains}
    if len(modes) != 1:
        raise ValueError("generators must agree on designated bounds")
    bottom = modes.pop()
    sums = [
        SumClass(
            tuple(
                Item((Atom(k, bottom=bottom and i == 0),))
                for i, k in enumerate(g.components)
            )
        )
        for g in chains
        if not g.is_trivial
    ]
    return class_expr(sums or [SumClass((Item((Atom(TRIVIAL, bottom=bottom),)),))])


def canonical(e: ClassExpr) -> ClassExpr:
    """The variety whose finite-index chains are the class ``e``: ``e``
    itself, since a variety is given by its class expression.  The name is
    kept for callers that spell out the step, such as the benchmark
    workloads."""
    return e


def vfc_membership(x: Chain, v: ClassExpr) -> bool:
    """Whether a finite-index chain lies in the variety's chain class; the
    trivial chain of the variety's signature always does."""
    if x.is_trivial and x.bottom == v.bl_mode:
        return True
    return member(x, v)


# ---------------------------------------------------------------------------
# Finite witness bases and class comparison
# ---------------------------------------------------------------------------


def _item_variants(item: Item, lone: bool) -> list:
    """Kind sequences a single item contributes to the witness basis.  A
    starred item reads its distinct non-trivial kinds, since a repeated atom
    or a ``T`` leaves its class as it is."""
    if not item.star:
        return [(item.atoms[0].kind,)]
    kinds = tuple(dict.fromkeys(a.kind for a in item.atoms if a.kind.tag != TRIV))
    if len(kinds) < 2:
        return [kinds * n for n in ((1, 2, 3) if lone else (1, 2))]
    variants = [(k,) for k in kinds]
    variants += [(k1, k2) for k1 in kinds for k2 in kinds if k1 != k2]
    variants += [(k1, k2, k1) for k1 in kinds for k2 in kinds if k1 != k2]
    return variants


def witness_basis(e: ClassExpr) -> list:
    """Finitely many member chains that separate the canonical classes.

    Unstarred sums contribute their maximal chain; a starred item of one
    kind also pumps one extra copy (two when the star stands alone); starred
    groups add single atoms, both orders, and the alternating triples.
    """
    out = []
    seen = set()
    for s in e.sums:
        lone = len(s.items) == 1 or (e.bl_mode and len(s.items) == 2)
        per_item = [_item_variants(it, lone) for it in s.items]
        for combo in product(*per_item):
            kinds = tuple(k for part in combo for k in part)
            c = chain(kinds, bottom=e.bl_mode)
            if (c.components, c.bottom) not in seen:
                seen.add((c.components, c.bottom))
                out.append(c)
    return out


def _pumped_item(e: ClassExpr):
    """The sum class and the first non-trivial atom of ``e``'s first
    unbounded item, a starred one with a non-trivial atom; ``None`` when
    ``e`` bounds the index of its chains."""
    for s in e.sums:
        for it in s.items:
            if it.star:
                for a in it.atoms:
                    if a.kind.tag != TRIV:
                        return s, a
    return None


def pumped_witness(e: ClassExpr, gens: tuple) -> Chain:
    """A member of an unbounded class whose index exceeds that of every
    chain in ``gens``: the first non-trivial atom of the first unbounded
    item, repeated after the bounds atom in BL mode."""
    s, a = _pumped_item(e)
    n = max(2, max((g.index for g in gens), default=1)) + 1
    kinds = [s.items[0].atoms[0].kind] if e.bl_mode else []
    return chain(kinds + [a.kind] * n, bottom=e.bl_mode)


def _first_outside(a: ClassExpr, a_basis: list, b: ClassExpr) -> Optional[Chain]:
    """The first chain of ``a`` outside ``b``, or ``None`` when ``a ⊆ b``.

    A class with unbounded index is never inside one with bounded index, and
    the pumped chain shows it.  Otherwise ``a ⊆ b`` exactly when ``b`` holds
    every chain of ``a``'s witness basis ``a_basis``.
    """
    if a.bl_mode != b.bl_mode:
        raise ModeMismatchError(f"{a!r} and {b!r} disagree on designated bounds")
    if _pumped_item(a) is not None and _pumped_item(b) is None:
        return pumped_witness(a, witness_basis(b))
    for c in a_basis:
        if not vfc_membership(c, b):
            return c
    return None


def vfc_equals(v: ClassExpr, e: ClassExpr):
    """Compare a variety's chain class with a canonical class.

    Returns one of ``equal``, ``v_strictly_smaller``,
    ``v_strictly_larger_or_incomparable``, together with a separating
    witness chain when the classes differ, from ``_first_outside``.
    """
    return _vfc_compare(v, witness_basis(v), e)


def _vfc_compare(v: ClassExpr, v_basis: list, e: ClassExpr):
    """``vfc_equals`` given the variety's witness basis, so that a scan over
    many classes builds it once."""
    wit = _first_outside(v, v_basis, e)
    if wit is not None:
        return "v_strictly_larger_or_incomparable", wit
    wit = _first_outside(e, witness_basis(e), v)
    if wit is None:
        return "equal", None
    return "v_strictly_smaller", wit


def class_includes(e1: ClassExpr, e2: ClassExpr) -> bool:
    """Inclusion of canonical classes, decided by ``_first_outside``."""
    return _first_outside(e1, witness_basis(e1), e2) is None
