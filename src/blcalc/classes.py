"""Classes of finite-index chains described by bracket/star expressions, and
the membership engine for finitely generated varieties.

A class expression is a union of sum classes; a sum class is a sequence of
items, each either a single generator atom (consuming at most one non-trivial
component), a starred atom (any number), or a starred group (any number, each
drawn from any atom of the group).  An atom matches a component exactly when
the component lies in the atom's generator closure: when it embeds into the
atom's kind by ``core.kind_embeds``, or the atom is ``U``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator

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
    return any(component_member(comp, a.kind) for a in item.atoms)


def _match(comps: tuple, items: tuple, ci: int, ii: int, asg: list) -> Iterator[tuple]:
    """Backtracking matcher; yields item-index assignments per component.

    A plain item consumes at most one matching component (its other
    instances may be trivial); a starred item consumes any number.
    """
    if ci == len(comps):
        yield tuple(asg)
        return
    if ii == len(items):
        return
    item = items[ii]
    if _item_matches(comps[ci], item):
        asg.append(ii)
        if item.star:
            yield from _match(comps, items, ci + 1, ii, asg)
        else:
            yield from _match(comps, items, ci + 1, ii + 1, asg)
        asg.pop()
    yield from _match(comps, items, ci, ii + 1, asg)


def match_assignments(c: Chain, s: SumClass) -> Iterator[tuple]:
    """Assignments of the chain's components to the sum's items, if any."""
    items = s.items
    comps = c.components
    if items[0].atoms[0].bottom:
        if c.is_trivial:
            return
        if not component_member(comps[0], items[0].atoms[0].kind):
            return
        for rest in _match(comps[1:], items[1:], 0, 0, []):
            yield (0,) + tuple(i + 1 for i in rest)
    else:
        yield from _match(comps, items, 0, 0, [])


def member(c: Chain, e: ClassExpr) -> bool:
    """Whether a structural chain belongs to the class."""
    if c.bottom != e.bl_mode:
        raise ModeMismatchError(
            f"{c!r} and {e!r} disagree on designated bounds"
        )
    return any(next(match_assignments(c, s), None) is not None for s in e.sums)


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
    """Kind sequences a single item contributes to the witness basis."""
    if not item.star:
        return [(item.atoms[0].kind,)]
    if len(item.atoms) == 1:
        k = item.atoms[0].kind
        variants = [(k,), (k, k)]
        if lone:
            variants.append((k, k, k))
        return variants
    kinds = [a.kind for a in item.atoms]
    variants = [(k,) for k in kinds]
    variants += [(k1, k2) for k1 in kinds for k2 in kinds if k1 != k2]
    variants += [(k1, k2, k1) for k1 in kinds for k2 in kinds if k1 != k2]
    return variants


def witness_basis(e: ClassExpr) -> list:
    """Finitely many member chains that separate the canonical classes.

    Unstarred sums contribute their maximal chain; starred atoms also pump
    one extra copy (two when the star stands alone); starred groups add
    single atoms, both orders, and the alternating triples.
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


def has_star(e: ClassExpr) -> bool:
    return any(it.star for s in e.sums for it in s.items)


def pumped_witness(e: ClassExpr, gens: tuple) -> Chain:
    """A member of a starred class whose index exceeds that of every chain
    in ``gens``."""
    n = max(2, max((g.index for g in gens), default=1)) + 1
    for s in e.sums:
        for it in s.items:
            if it.star:
                kinds = []
                if e.bl_mode:
                    kinds.append(s.items[0].atoms[0].kind)
                kinds.extend([it.atoms[0].kind] * n)
                return chain(kinds, bottom=e.bl_mode)
    raise ValueError("expression has no starred item")


def _first_non_member(chains, e: ClassExpr):
    for c in chains:
        if not member(c, e):
            return c
    return None


def vfc_equals(v: ClassExpr, e: ClassExpr):
    """Compare a variety's chain class with a canonical class.

    Returns one of ``equal``, ``v_strictly_smaller``,
    ``v_strictly_larger_or_incomparable``, together with a separating
    witness chain when the classes differ.  An unstarred class bounds the
    index of its chains and a starred one does not, so a starred ``e`` is
    never inside an unstarred ``v``; the witness is then the pumped chain.
    """
    return _vfc_compare(v, witness_basis(v), e)


def _vfc_compare(v: ClassExpr, v_basis: list, e: ClassExpr):
    """``vfc_equals`` given the variety's witness basis, so that a scan over
    many classes builds it once."""
    if v.bl_mode != e.bl_mode:
        raise ModeMismatchError(f"{v!r} and {e!r} disagree on designated bounds")
    wit_v = _first_non_member(v_basis, e)
    v_in_e = wit_v is None

    if has_star(e) and not has_star(v):
        wit_e = pumped_witness(e, v_basis)
    else:
        wit_e = None
        for b in witness_basis(e):
            if not vfc_membership(b, v):
                wit_e = b
                break
    e_in_v = wit_e is None

    if v_in_e and e_in_v:
        return "equal", None
    if v_in_e:
        return "v_strictly_smaller", wit_e
    return "v_strictly_larger_or_incomparable", wit_v


def class_includes(e1: ClassExpr, e2: ClassExpr) -> bool:
    """Inclusion of canonical classes, decided on witness bases."""
    return all(member(b, e2) for b in witness_basis(e1))
