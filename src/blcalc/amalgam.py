"""Spans of chain embeddings, brute-force amalgam search over a class, and
constructive amalgamation by componentwise alignment.

The brute-force search is the oracle: it enumerates candidate targets inside
a class expression in a fixed order (index, then component kinds, then
embedding choices) and returns the first commuting completion.  The
constructive route aligns the three ordinal-sum decompositions against a sum
class of the universe, pads with trivial summands, amalgamates slot by slot
(finite chains into their lcm chain, cancellative components by scale
balancing, lexicographic components by radical transport), and reassembles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Optional, Union

from .core import (
    CANC_Z,
    FIN,
    LEX,
    STD_UNIT,
    Chain,
    Kind,
    chain,
    fin_luk,
    kind_embeds,
    lex_omega,
)
from .classes import ClassExpr, component_member, match_assignments, member
from .maps import (
    ChainMap,
    Essentialization,
    Filter,
    collapse_after,
    compose,
    enumerate_embeddings,
    essentialize,
    is_essential_embedding,
)


class UnsupportedShapeError(ValueError):
    """The constructive route does not cover this span/universe shape."""


@dataclass(frozen=True)
class Span:
    """Two embeddings out of a common chain."""

    apex: Chain
    left: ChainMap
    right: ChainMap

    def __post_init__(self):
        if self.left.source != self.apex or self.right.source != self.apex:
            raise ValueError("span legs must start at the apex")

    def to_json(self) -> dict:
        return {
            "apex": repr(self.apex),
            "left": self.left.to_json(),
            "right": self.right.to_json(),
        }


@dataclass(frozen=True)
class CollapsingMap:
    """A chain homomorphism factored as filter collapse followed by an
    embedding of the quotient."""

    source: Chain
    collapse: Filter
    embed: ChainMap

    def to_json(self) -> dict:
        return {
            "source": repr(self.source),
            "collapse": {"cut": self.collapse.cut, "radical": self.collapse.radical},
            "embed": self.embed.to_json(),
            "embedding": self.collapse.cut == self.source.index,
        }


Completion = Union[ChainMap, CollapsingMap]


@dataclass(frozen=True)
class Amalgam:
    """A completing pair of maps into a common target."""

    target: Chain
    left: ChainMap
    right: Completion
    one_sided: bool = False

    def to_json(self) -> dict:
        return {
            "target": repr(self.target),
            "left": self.left.to_json(),
            "right": self.right.to_json(),
            "one_sided": self.one_sided,
        }


def make_span(
    apex: Chain,
    left_target: Chain,
    right_target: Chain,
    left_index: int = 0,
    right_index: int = 0,
    scale_cap: int = 4,
) -> Span:
    """Span built from enumerated embeddings, selected by position in the
    deterministic enumeration order."""
    lefts = enumerate_embeddings(apex, left_target, scale_cap)
    rights = enumerate_embeddings(apex, right_target, scale_cap)
    if not lefts or not rights:
        raise ValueError("no embedding for the requested span leg")
    for side, legs, i in (("left", lefts, left_index), ("right", rights, right_index)):
        if not 0 <= i < len(legs):
            raise ValueError(
                f"{side} embedding index {i} is out of range 0..{len(legs) - 1}"
            )
    return Span(apex=apex, left=lefts[left_index], right=rights[right_index])


def is_essential_span(s: Span) -> bool:
    return is_essential_embedding(s.right)


def spans_commute(s: Span, am: Amalgam) -> bool:
    """Whether the completed square commutes, decided exactly.

    Both composites are embeddings given by an index map and one scale per
    component (1 where there is no cancellative coordinate), so they agree
    as functions exactly when they agree as data.  A collapsing right completion first collapses
    the right leg; when that identifies image points the square cannot
    commute, because the left composite is injective.
    """
    leg, right = s.right, am.right
    if isinstance(right, CollapsingMap):
        leg, right = collapse_after(leg, right.collapse), right.embed
        if leg is None:
            return False
    return compose(am.left, s.left) == compose(right, leg)


# ---------------------------------------------------------------------------
# Brute-force search
# ---------------------------------------------------------------------------


def universe_chains(e: ClassExpr, max_index: int, max_k: int) -> Iterator[Chain]:
    """Members of a class with bounded index and parameters, yielded lazily
    in search order: the trivial chain first in hoop mode, then by index,
    then componentwise by kind.  A consumer that stops early builds no chain
    past the one it stopped at."""
    atoms = [atom.kind for s in e.sums for item in s.items for atom in item.atoms]
    # already in Kind.sort_key order
    candidates = (
        [fin_luk(k) for k in range(1, max_k + 1)]
        + [lex_omega(k) for k in range(1, max_k + 1)]
        + [CANC_Z, STD_UNIT]
    )
    kinds = [k for k in candidates if any(component_member(k, a) for a in atoms)]
    if not e.bl_mode:
        yield chain((), bottom=False)
    for length in range(1, max_index + 1):
        for combo in product(kinds, repeat=length):
            if e.bl_mode and not combo[0].bounded:
                continue
            c = chain(combo, bottom=e.bl_mode)
            if member(c, e):
                yield c


def _kind_embeds(a: Chain, b: Chain) -> bool:
    """Whether ``enumerate_embeddings(a, b)`` finds an embedding, decided on
    component kinds alone.

    Each component of ``a`` takes the leftmost free component of ``b`` it
    embeds into by ``core.kind_embeds`` (first to first when bounds are
    designated); for an
    order-preserving injection the greedy choice fails only when every
    choice does.
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


def find_amalgam_bruteforce(
    s: Span,
    universe: ClassExpr,
    max_index: int = 3,
    max_k: int = 7,
    scale_cap: int = 4,
) -> Optional[Amalgam]:
    """Exhaustive search for a commuting completion inside the universe.

    Targets are drawn lazily from ``universe_chains`` and the search stops at
    the first commuting completion in (target, left leg, right leg) order, so
    no target past it is built.  A target that one codomain does not embed
    into by kinds is skipped without enumerating legs.  ``None`` means the
    whole bounded universe was walked without a hit; for universes whose
    kind inventory is finite the kind-level embedding rules make that
    exhaustive up to the scale cap.
    """
    b, c = s.left.target, s.right.target
    for target in universe_chains(universe, max_index, max_k):
        if not (_kind_embeds(b, target) and _kind_embeds(c, target)):
            continue
        # the square commutes exactly when the composites are equal as data
        # (see spans_commute), so each left leg is looked up among the right
        # composites, each kept with the first right leg that gives it
        by_composite = {}
        for psi2 in enumerate_embeddings(c, target, scale_cap):
            by_composite.setdefault(compose(psi2, s.right), psi2)
        for psi1 in enumerate_embeddings(b, target, scale_cap):
            psi2 = by_composite.get(compose(psi1, s.left))
            if psi2 is not None:
                return Amalgam(target=target, left=psi1, right=psi2)
    return None


# ---------------------------------------------------------------------------
# Constructive amalgamation
# ---------------------------------------------------------------------------


def _join_kinds(b: Kind, c: Kind) -> Kind:
    """The first of ``W n``, ``Z``, ``Wo n``, ``U`` that both kinds embed
    into, ``n`` the lcm of their ``W``/``Wo`` parameters."""
    n = math.lcm(*(k.k for k in (b, c) if k.tag in (FIN, LEX)))
    for d in (fin_luk(n), CANC_Z, lex_omega(n), STD_UNIT):
        if kind_embeds(b, d) and kind_embeds(c, d):
            return d
    raise UnsupportedShapeError(f"no representable join of {b} and {c}")


def _slot_amalgam(
    b_kind: Optional[Kind], c_kind: Optional[Kind], apex_scales: tuple = (1, 1)
):
    """Amalgamate one aligned component slot.

    Returns the slot's target kind and the scales of the two completions
    there (``None`` for an absent side).  ``apex_scales`` are the apex's
    scales into the two sides; they are balanced crosswise, so the apex
    reaches the slot at their product both ways and the square commutes.
    """
    if c_kind is None:
        return b_kind, 1, None
    if b_kind is None:
        return c_kind, None, 1
    sb, sc = apex_scales
    return _join_kinds(b_kind, c_kind), sc, sb


def _merge_positions(bpos, cpos, anchors):
    """Merge two position runs into slots (b position or None, c position or
    None), fusing the anchored pairs and interleaving the rest."""
    slots = []
    bi, ci = 0, 0
    for (pb, pc) in anchors:
        while bi < len(bpos) and bpos[bi] < pb:
            slots.append((bpos[bi], None))
            bi += 1
        while ci < len(cpos) and cpos[ci] < pc:
            slots.append((None, cpos[ci]))
            ci += 1
        slots.append((pb, pc))
        bi += 1
        ci += 1
    slots.extend((pb, None) for pb in bpos[bi:])
    slots.extend((None, pc) for pc in cpos[ci:])
    return slots


def amalgamate_constructive(s: Span, universe: ClassExpr) -> Amalgam:
    """Componentwise amalgamation inside a canonical universe.

    Both codomains are matched against one sum class of the universe; the
    apex components pin down which of their components must be fused, the
    rest are interleaved with trivial padding, and each slot is amalgamated
    on its own.  Raises UnsupportedShapeError when no consistent alignment
    exists or a slot join is not representable.

    The amalgam need not be the one ``find_amalgam_bruteforce`` returns:
    the slot joins fix the target, which may differ from the first target
    in search order and may have a larger index.
    """
    b_chain, c_chain = s.left.target, s.right.target
    for c in (s.apex, b_chain, c_chain):
        if not member(c, universe):
            raise UnsupportedShapeError(f"{c!r} lies outside the universe")

    f1, f2 = s.left.index_map, s.right.index_map
    for sum_class in universe.sums:
        for asg_b in match_assignments(b_chain, sum_class):
            for asg_c in match_assignments(c_chain, sum_class):
                if any(asg_b[f1[i]] != asg_c[f2[i]] for i in range(s.apex.index)):
                    continue
                try:
                    am = _assemble(s, sum_class, asg_b, asg_c)
                except UnsupportedShapeError:
                    continue
                if member(am.target, universe) and spans_commute(s, am):
                    return am
    raise UnsupportedShapeError("no consistent componentwise alignment found")


def _assemble(s: Span, sum_class, asg_b, asg_c) -> Amalgam:
    b_chain, c_chain = s.left.target, s.right.target
    f1, f2 = s.left.index_map, s.right.index_map
    anchor_of_b = {f1[i]: i for i in range(s.apex.index)}

    kinds = []
    b_index_map, b_scales = [], []
    c_index_map, c_scales = [], []
    for ii, item in enumerate(sum_class.items):
        bpos = [p for p, a in enumerate(asg_b) if a == ii]
        cpos = [p for p, a in enumerate(asg_c) if a == ii]
        if item.star:
            anchors = [(f1[i], f2[i]) for i in range(s.apex.index) if asg_b[f1[i]] == ii]
        else:
            anchors = list(zip(bpos, cpos))  # a plain item's components fuse
        for pb, pc in _merge_positions(bpos, cpos, anchors):
            b_kind = b_chain.components[pb] if pb is not None else None
            c_kind = c_chain.components[pc] if pc is not None else None
            apex_i = anchor_of_b.get(pb)
            apex_scales = (1, 1)
            if apex_i is not None and s.apex.components[apex_i].cancellative:
                apex_scales = (s.left.scales[apex_i], s.right.scales[apex_i])
            d_kind, sb, sc = _slot_amalgam(b_kind, c_kind, apex_scales)
            if pb is not None:
                b_index_map.append(len(kinds))
                b_scales.append(sb)
            if pc is not None:
                c_index_map.append(len(kinds))
                c_scales.append(sc)
            kinds.append(d_kind)

    target = chain(kinds, bottom=b_chain.bottom)
    if target.index != len(kinds):
        raise AssertionError("slot kinds must be non-trivial")
    left = ChainMap(b_chain, target, tuple(b_index_map), tuple(b_scales))
    right = ChainMap(c_chain, target, tuple(c_index_map), tuple(c_scales))
    return Amalgam(target=target, left=left, right=right)


def one_sided_amalgam(
    s: Span,
    universe: ClassExpr,
    max_index: int = 3,
    max_k: int = 7,
    scale_cap: int = 4,
) -> Optional[Amalgam]:
    """Collapse the right codomain along its largest image-avoiding filter,
    amalgamate the resulting essential span, and compose the collapse into
    the right completion.

    ``None`` means the essential span has no amalgam within the bounds, as
    for ``find_amalgam_bruteforce``.  Raises UnsupportedShapeError when the
    right codomain or its quotient lies outside the universe.
    """
    if not member(s.right.target, universe):
        raise UnsupportedShapeError(f"{s.right.target!r} lies outside the universe")
    ess: Essentialization = essentialize(s.right)
    if not member(ess.map.target, universe):
        raise UnsupportedShapeError(
            f"quotient {ess.map.target!r} escapes the universe; it is not "
            "closed under homomorphic images"
        )
    espan = Span(apex=s.apex, left=s.left, right=ess.map)
    try:
        core = amalgamate_constructive(espan, universe)
    except UnsupportedShapeError:
        core = find_amalgam_bruteforce(
            espan, universe, max_index=max_index, max_k=max_k, scale_cap=scale_cap
        )
        if core is None:
            return None
    right = CollapsingMap(source=s.right.target, collapse=ess.theta0, embed=core.right)
    return Amalgam(
        target=core.target,
        left=core.left,
        right=right,
        one_sided=ess.theta0.cut != s.right.target.index,
    )
