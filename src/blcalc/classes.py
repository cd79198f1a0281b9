"""Classes of finite-index chains described by bracket/star expressions, and
the membership engine for finitely generated varieties.

A class expression is a union of sum classes; a sum class is a tuple of
items, each either one plain kind (consuming at most one non-trivial
component), a starred kind (any number), or a starred group of kinds (any
number, each drawn from any kind of the group).  A kind admits a component
exactly when the component lies in the kind's generator closure: when it
embeds into the kind by ``core.kind_embeds``, or the kind is ``U``.  Like a
chain, a class carries its designated bounds once, as ``bottom``; with them,
each sum class starts with one unstarred kind, its head, which takes the
first component.

Membership is one greedy scan per sum class (``greedy_step``);
``match_assignments`` lists every assignment, for the constructive amalgam.
``canonical`` gives each class one normal form, so that two expressions
have one class exactly when their forms are equal; ``vfc_equals`` reads
equality off the forms.  Inclusion of one class in another is decided on
reduced sum classes by one greedy pass (``class_includes``);
``_first_outside`` only finds the least-``k`` witness chain of one class
outside another.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .core import TRIV, TRIVIAL, UNIT, Chain, Kind, chain, kind_embeds, same_bounds


@dataclass(frozen=True)
class Item:
    kinds: tuple
    star: bool = False


@dataclass(frozen=True)
class ClassExpr:
    """A union of sum classes, each a tuple of ``Item``s."""

    sums: tuple
    bottom: bool = False  # designated bounds, as on ``Chain``

    def __repr__(self):
        from .dsl import pretty_class_expr

        return pretty_class_expr(self)


def class_expr(sums, bottom: bool = False) -> ClassExpr:
    """Validated constructor: each item holds a kind, and only a starred one
    a group of kinds; with designated bounds, each sum class starts with one
    unstarred kind, its head; a ``T`` head stands alone, as it holds the
    trivial chain only."""
    sums = tuple(map(tuple, sums))
    if not sums:
        raise ValueError("a class expression needs at least one sum class")
    for s in sums:
        if not s:
            raise ValueError("a sum class needs at least one item")
        if not all(it.kinds for it in s):
            raise ValueError("an item needs at least one kind")
        if bottom and (s[0].star or len(s[0].kinds) != 1):
            raise ValueError("a designated-bounds head cannot be starred or grouped")
        if bottom and not s[0].kinds[0].bounded:
            raise ValueError("a designated-bounds head needs a bounded kind")
        if bottom and s[0].kinds[0].tag == TRIV and len(s) > 1:
            raise ValueError("a designated-bounds T head cannot have further items")
        if any(len(it.kinds) > 1 and not it.star for it in s):
            raise ValueError("a group of kinds must be starred")
    return ClassExpr(sums, bottom)


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
    for k in item.kinds:
        if component_member(comp, k):
            return True
    return False


def greedy_step(items: tuple, p: int, comp: Kind, bottom: bool) -> Optional[int]:
    """The scan position after one more component: it takes the leftmost
    item at or after ``p`` that admits it, past which a plain item advances
    and a starred one does not; ``None`` when no item does.  With designated
    bounds the head must take the first component, the only one scanned
    from 0.
    """
    for i in range(p, len(items)):
        item = items[i]
        if _item_matches(comp, item):
            return i if item.star else i + 1
        if bottom and not i:
            return None
    return None


def _match(
    comps: tuple, items: tuple, ci: int, ii: int, asg: list, bottom: bool
) -> Iterator[tuple]:
    """Backtracking matcher; yields item-index assignments per component.

    A plain item consumes at most one matching component (its other
    instances may be trivial); a starred item consumes any number.  With
    designated bounds the head is never skipped: it takes the first
    component.
    """
    if ci == len(comps):
        yield tuple(asg)
        return
    if ii == len(items):
        return
    item = items[ii]
    if _item_matches(comps[ci], item):
        asg.append(ii)
        yield from _match(comps, items, ci + 1, ii if item.star else ii + 1, asg, bottom)
        asg.pop()
    if not (bottom and not ii):
        yield from _match(comps, items, ci, ii + 1, asg, bottom)


def match_assignments(c: Chain, items: tuple) -> Iterator[tuple]:
    """Assignments of the chain's components to a sum class's items, if
    any; the trivial chain has the empty one."""
    yield from _match(c.components, items, 0, 0, [], c.bottom)


def member(c: Chain, e: ClassExpr) -> bool:
    """Whether a structural chain belongs to the class: whether one greedy
    scan (``greedy_step``) of some sum class takes all its components.

    Greedy is exact.  By induction, its position never passes that of any
    valid assignment: each component takes an item no later than the
    assignment's, which leaves a position no later.  The trivial chain has
    no component to scan, so it is a member of every class of its
    signature, as the trivial algebra lies in every variety.
    """
    bottom = c.bottom
    if bottom != e.bottom:  # inline first: this is the hot path
        same_bounds(c, e)
    for items in e.sums:
        p = 0
        for comp in c.components:
            p = greedy_step(items, p, comp, bottom)
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
    bottom = same_bounds(*chains)
    sums = [tuple(Item((k,)) for k in g.components) for g in chains if not g.is_trivial]
    return class_expr(sums or [(Item((TRIVIAL,)),)], bottom)


def normalize_kinds(kinds) -> tuple:
    """Drop generators absorbed by another's closure; keep the maximal ones."""
    ks = {k for k in kinds if k.tag != TRIV}
    keep = [
        a for a in ks if not any(b != a and component_member(a, b) for b in ks)
    ]
    return tuple(sorted(keep, key=lambda k: k.sort_key()))


def _holds(gens: tuple, kinds: tuple) -> bool:
    """Whether each of ``kinds`` lies in the closure of one of ``gens``."""
    return all(any(component_member(k, g) for g in gens) for k in kinds)


def _reduced_product(items) -> tuple:
    """The items with ``T`` dropped, each star cut to its maximal kinds, and
    every item absorbed by a neighbour dropped: a plain kind next to a star
    that admits it, a star next to a star that holds all its kinds."""
    out = []
    for it in items:
        if not it.star:
            absorbed = out and out[-1].star and _holds(out[-1].kinds, it.kinds)
            if not (absorbed or it.kinds[0].tag == TRIV):
                out.append(it)
            continue
        kinds = normalize_kinds(it.kinds) if len(it.kinds) > 1 else it.kinds
        if not kinds or kinds[0].tag == TRIV:
            continue
        while out and _holds(kinds, out[-1].kinds):
            out.pop()
        if not (out and out[-1].star and _holds(out[-1].kinds, kinds)):
            out.append(Item(kinds, star=True))
    return tuple(out)


def _reduced_sum(items: tuple, bottom: bool) -> tuple:
    """A sum class's items in normal form: the head kept as it is; the rest,
    or without bounds all items, a reduced product, ``[T]`` when empty."""
    if not bottom:
        return _reduced_product(items) or (Item((TRIVIAL,)),)
    return items[:1] + _reduced_product(items[1:])


def _sum_included(a: tuple, b: tuple, bottom: bool) -> bool:
    """Whether the reduced sum class ``a`` lies in ``b``, by one greedy pass:
    a plain item takes the first item of ``b`` at or after the position that
    admits it (``greedy_step``), and a star the first star there that holds
    all its kinds, where the position stays.  With designated bounds the
    head goes to the head."""
    p = 0
    if bottom:
        if not component_member(a[0].kinds[0], b[0].kinds[0]):
            return False
        a, p = a[1:], 1
    for it in a:
        if it.star:
            p = next(
                (i for i in range(p, len(b)) if b[i].star and _holds(b[i].kinds, it.kinds)),
                None,
            )
        else:
            p = greedy_step(b, p, it.kinds[0], False)
        if p is None:
            return False
    return True


def _sum_key(items: tuple) -> tuple:
    return tuple((it.star, tuple(k.sort_key() for k in it.kinds)) for it in items)


def canonical(e: ClassExpr) -> ClassExpr:
    """The normal form of ``e``: an expression of the same class, and one
    expression per class, so two expressions have one class exactly when
    their forms are equal.  Each sum class is reduced on its own
    (``_reduced_sum``); the union keeps its sum classes that no other one
    includes (``_sum_included``), without duplicates, sorted by ``_sum_key``.

    Why this is one form per class.  ``component_member`` is a partial order
    on the non-trivial kinds, and a chain is the word of its components.
    Without designated bounds a sum class is a product of atoms: a plain
    ``a`` holds the words of at most one letter in the closure of ``a``, a
    star ``D*`` every word over the closures of ``D``.  It is closed under
    dropping a letter and lowering one in the order, and any two of its
    words lie below a third: it is an ideal of words, a product of atoms in
    the sense of Abdulla, Bouajjani and Jonsson (CAV 1998) and of Finkel
    and Goubault-Larrecq (STACS 2009).  With designated bounds the head
    takes the first letter and the rest is such a product.

    1. The reduction keeps the class: ``T`` adds no word, a star is the star
       of its maximal kinds, and ``a D*`` and ``D* a`` with ``a`` admitted
       by ``D``, like ``E* D*`` and ``D* E*`` with ``E`` held by ``D``, are
       ``D*``.  The rest after a head is reduced on its own; a ``T`` head
       has no rest (``class_expr``).
    2. Call an embedding of a product ``P`` into ``Q`` a monotone map from
       the items of ``P`` to those of ``Q`` that sends a plain item to one
       that admits it, a star to a star that holds all its kinds, and at
       most one item to each plain item.  ``P ⊆ Q`` exactly when there is
       one, and exactly when the pass of ``_sum_included`` gets through,
       which is how ``class_includes`` decides inclusion.  The pass, when
       it gets through, is an embedding, and an embedding carries each
       word of ``P`` into ``Q``.  Conversely, scan the chain of
       ``witness_basis(P, n)``, ``n = scan_count(Q)``, through ``Q`` as
       ``member`` does; it lies in ``P`` (step 3 of ``_first_outside``),
       so in ``Q`` when ``P ⊆ Q``.  A plain kind goes where the pass puts
       it.  The repetitions of a star's block never pass the first star at
       or after the block's start that holds all its kinds, and each one
       moves the scan forward or leaves it on such a star; ``n`` of them
       leave it on that first one, where the pass puts the star.
    3. A reduced product ``P`` embeds into itself only by the identity.
       Let ``t`` be the first item with ``f(t) != t``.  If ``f(t) < t``,
       then ``f(t) = t - 1 = f(t - 1)``.  If ``f(t) > t``, let ``u`` be the
       first item after ``t`` with ``f(u) <= u``, which exists as the last
       item is one; then ``f(u - 1) >= u``, so ``f(u - 1) = f(u) = u``.
       Either way two neighbours go to one of them, which takes two items
       and so is a star that holds the other: the other is absorbed.
    4. So two reduced products of one class are equal.  Embeddings
       ``f: P → Q`` and ``g: Q → P`` compose to embeddings of each into
       itself, the identities.  So ``f`` is a monotone bijection, the
       identity on positions, and each item and its image lie in each
       other's closures: plain items have equal kinds, as the order is
       antisymmetric, and stars equal maximal kinds.  With designated
       bounds, a sum class lies in another exactly when its head lies in
       the other's head's closure and its rest in the other's rest, so two
       reduced sum classes of one class have equal heads and equal rests.
    5. A sum class inside a union lies inside one of its sum classes:
       otherwise take a chain of it outside each, and a chain of it above
       all of those, which lies outside every one.  So each maximal sum
       class of one union lies in a sum class of another union of the same
       class, and that in a sum class of the first, which can only be
       itself.  Two unions of one class have the same maximal sum classes,
       with equal reduced forms by step 4.
    """
    bottom = e.bottom
    sums = [_reduced_sum(s, bottom) for s in e.sums]
    if len(sums) > 1:
        sums = list(dict.fromkeys(sums))
        maximal = (
            a for a in sums if not any(b is not a and _sum_included(a, b, bottom) for b in sums)
        )
        sums = sorted(maximal, key=_sum_key)
    return ClassExpr(tuple(sums), bottom)


def vfc_membership(x: Chain, v: ClassExpr) -> bool:
    """Whether a finite-index chain lies in the variety's chain class: the
    same rule as ``member``."""
    return member(x, v)


# ---------------------------------------------------------------------------
# Finite witness bases and class comparison
# ---------------------------------------------------------------------------


def witness_basis(e: ClassExpr, n: int) -> list:
    """One member chain per sum class of ``e``: each plain item's kind, and
    each starred item's distinct non-trivial kinds repeated ``n`` times as
    one block (``chain`` absorbs the trivial ones)."""
    out = []
    for s in e.sums:
        kinds = []
        for it in s:
            if it.star:
                kinds += tuple(dict.fromkeys(it.kinds)) * n
            else:
                kinds.append(it.kinds[0])
        out.append(chain(kinds, bottom=e.bottom))
    return out


def scan_count(e: ClassExpr) -> int:
    """The number of greedy scan positions of ``e``: ``len(items) + 1`` per
    sum class."""
    return sum(len(s) + 1 for s in e.sums)


def _first_outside(a: ClassExpr, b: ClassExpr) -> Optional[Chain]:
    """The first chain of ``a`` outside ``b``, or ``None`` when ``a ⊆ b``:
    the first chain of ``witness_basis(a, k)`` that ``b`` does not hold,
    for the least ``k``.  It only finds witnesses; ``class_includes``
    decides inclusion on normal forms.

    Why ``k <= n = scan_count(b)`` suffices, so that ``None`` means
    ``a ⊆ b``:

    1. Membership in ``b`` survives dropping a component that is not the
       head of a class with designated bounds: the scan's assignment,
       restricted, is valid.
    2. It survives replacing a component by a kind in its generator closure,
       since closures are transitive (``component_member``).
    3. So every chain of ``a`` is covered by a chain of
       ``witness_basis(a, m)``, with ``m`` its index: keep the slot of each
       plain item a component takes, and for a starred item one slot of a
       fresh copy of the block per component, drop the rest, and replace
       each slot by its component.  The chains of ``witness_basis(a, m)``
       lie in ``a`` themselves.
    4. Read ``witness_basis(a, m)`` with the greedy scans of all of ``b``'s
       sum classes at once.  Each repetition of a starred block either moves
       some scan forward, or ends it, or changes nothing, and then nothing
       from then on.  A scan moves forward or ends at most
       ``len(items) + 1`` times, so after ``n`` repetitions the scans stand
       still: ``b`` holds the chain for ``m >= n`` exactly when it holds it
       for ``n``, and the chains for ``m < n`` drop components of it.
    """
    same_bounds(a, b)
    for k in range(1, scan_count(b) + 1):
        for c in witness_basis(a, k):
            if not vfc_membership(c, b):
                return c


def vfc_equals(v: ClassExpr, e: ClassExpr):
    """Compare a variety's chain class with a canonical class.

    Returns one of ``equal``, ``v_strictly_smaller``,
    ``v_strictly_larger_or_incomparable``, together with a separating
    witness chain when the classes differ.  Equality is read off the normal
    forms (``canonical``); only when they differ does ``_first_outside``
    look for a witness, first of ``v`` outside ``e`` and then, failing that,
    of ``e`` outside ``v``, which exists as the classes differ.
    """
    if canonical(v) == canonical(e):
        return "equal", None
    wit = _first_outside(v, e)
    if wit is not None:
        return "v_strictly_larger_or_incomparable", wit
    return "v_strictly_smaller", _first_outside(e, v)


def _reduced_sums(e: ClassExpr) -> list:
    """The reduce step of ``class_includes``: each sum class of ``e`` by
    ``_reduced_sum``."""
    bottom = e.bottom
    return [_reduced_sum(s, bottom) for s in e.sums]


def _sums_included(a: list, b: list, bottom: bool) -> bool:
    """The decide step of ``class_includes``: whether each reduced sum
    class of ``a`` passes ``_sum_included`` into one of ``b``."""
    return all(any(_sum_included(s, t, bottom) for t in b) for s in a)


def class_includes(e1: ClassExpr, e2: ClassExpr) -> bool:
    """Whether the class ``e1`` lies in ``e2``: whether each reduced sum
    class of ``e1`` passes ``_sum_included`` into a reduced sum class of
    ``e2``.  By ``canonical``'s step 1 the reduction keeps each sum class,
    by its step 2 the pass decides inclusion of reduced sum classes, and by
    its step 5 a sum class inside a union lies inside one of its sum
    classes.  Step 5 is also why neither union needs its maximal sum
    classes or its order.  A caller comparing many pairs reduces each
    expression once (``_reduced_sums``) and decides each pair by
    ``_sums_included``."""
    bottom = same_bounds(e1, e2)
    return _sums_included(_reduced_sums(e1), _reduced_sums(e2), bottom)
