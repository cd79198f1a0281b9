"""Spans of chain embeddings, brute-force amalgam search over a class, and
constructive amalgamation by componentwise alignment.

The brute-force search is the oracle: it enumerates candidate targets inside
a class expression in a fixed order (index, then component kinds, then
embedding choices) and returns the first commuting completion.  It searches
legs as ``(positions, scales)`` data from ``maps.embedding_choices``, keyed
by ``maps._composite``, the one composite rule, and builds ``ChainMap``s only
for the amalgam it returns; the span fixes the largest completion scale it
needs.  The constructive route assigns both codomains to one sum class of
the universe and merges the two assignments in one walk, in item order: two
components share a slot when a plain item takes both or they are the two
images of one apex component, and a shared slot takes the join of their
kinds (``W n`` or ``Wo n`` for the lcm ``n`` of their parameters, ``Z`` or
``U``) at the apex's two scales crosswise; every other component gets a
slot of its own.  It is complete (the proof is in
``amalgamate_constructive``), so the one-sided route, which runs it on the
essentialized span, needs no bounds and no search.

Every route maps a span and a universe to an ``Amalgam`` or ``None``.  Each
first checks both codomains with ``check_in_universe``, the one place that
raises ``UnsupportedShapeError``; after that, ``None`` is the only negative
answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
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
    same_bounds,
)
from .classes import ClassExpr, greedy_step, match_assignments, member
from .maps import (
    ChainMap,
    Filter,
    _composite,
    collapse_after,
    compose,
    embedding_choices,
    enumerate_embeddings,
    essentialize,
)


# The most embeddings ``make_span`` admits on one side of a span.
MAX_SPAN_LEGS = 1_000_000


class UnsupportedShapeError(ValueError):
    """A codomain of a span lies outside the universe."""


@dataclass(frozen=True)
class Span:
    """Two embeddings out of a common chain."""

    apex: Chain
    left: ChainMap
    right: ChainMap

    def __post_init__(self):
        if self.left.source != self.apex or self.right.source != self.apex:
            raise ValueError("span legs must start at the apex")


@dataclass(frozen=True)
class CollapsingMap:
    """A chain homomorphism factored as filter collapse followed by an
    embedding of the quotient."""

    source: Chain
    collapse: Filter
    embed: ChainMap

    @property
    def is_embedding(self) -> bool:
        """Whether the collapse keeps every component of the source."""
        return self.collapse.cut == self.source.index

    def to_json(self) -> dict:
        return {
            "source": repr(self.source),
            "collapse": {"cut": self.collapse.cut, "radical": self.collapse.radical},
            "embed": self.embed.to_json(),
            "embedding": self.is_embedding,
        }


Completion = Union[ChainMap, CollapsingMap]


@dataclass(frozen=True)
class Amalgam:
    """A completing pair of maps into a common target, the left leg's."""

    left: ChainMap
    right: Completion

    @property
    def target(self) -> Chain:
        return self.left.target

    @property
    def one_sided(self) -> bool:
        """Whether the right completion collapses part of its source."""
        return isinstance(self.right, CollapsingMap) and not self.right.is_embedding

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
    deterministic enumeration order.

    A side has ``P·scale_cap^m`` embeddings, ``P`` its position choices (its
    embeddings at scale cap 1) and ``m`` the apex's cancellative
    components.  More than ``MAX_SPAN_LEGS`` on a side raise ``ValueError``;
    only the two chosen legs are built at ``scale_cap``."""
    per_choice = scale_cap ** sum(k.cancellative for k in apex.components)
    sides = (("left", left_target, left_index), ("right", right_target, right_index))
    counts = [len(enumerate_embeddings(apex, target, 1)) * per_choice for _, target, _ in sides]
    if not all(counts):
        raise ValueError("no embedding for the requested span leg")
    legs = []
    for (side, target, i), n in zip(sides, counts):
        if n > MAX_SPAN_LEGS:
            raise ValueError(
                f"the {side} leg has {n} embeddings, more than MAX_SPAN_LEGS = {MAX_SPAN_LEGS}"
            )
        if not 0 <= i < n:
            raise ValueError(f"{side} embedding index {i} is out of range 0..{n - 1}")
        leg = next(islice(embedding_choices(apex, target, scale_cap), i, None))
        legs.append(ChainMap(apex, target, *leg))
    return Span(apex, *legs)


def check_in_universe(chains, universe: ClassExpr) -> None:
    """Raise UnsupportedShapeError naming the first of ``chains`` that lies
    outside the universe."""
    for c in chains:
        if not member(c, universe):
            raise UnsupportedShapeError(f"{c!r} lies outside the universe")


def spans_commute(s: Span, am: Amalgam) -> bool:
    """Whether the completed square commutes, decided exactly.

    Both composites are embeddings given by an index map and one scale per
    component (1 where there is no cancellative coordinate), so they agree
    as functions exactly when they agree as data.  ``maps.compose`` builds
    each from ``maps._composite``, the composite rule that
    ``find_amalgam_bruteforce`` keys its legs on, so the search needs no
    ``ChainMap`` per leg.  A collapsing right completion first collapses
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


def universe_chains(
    e: ClassExpr, max_index: int, max_k: int, into: tuple = ()
) -> Iterator[Chain]:
    """Members of a class with bounded index and parameters into which every
    chain of ``into`` embeds, yielded lazily in search order: the trivial
    chain first when no chain of ``into`` has components, then by index,
    then componentwise by kind.  A consumer that stops early builds no
    chain past the one it stopped at.

    Each index is walked depth-first, carrying the ``classes.greedy_step``
    positions of the prefix in the sum classes that take it and how many
    components of each chain in ``into`` the prefix has taken.  A new
    component takes a chain's next component when ``core.kind_embeds``
    allows it (first to first when bounds are designated); for an
    order-preserving injection that greedy choice fails only when every
    choice does.  A prefix of a member is a member, so a prefix that no sum
    class takes is dropped with all its extensions, as is one with fewer
    slots left than some chain has components untaken.
    """
    # already in Kind.sort_key order
    kinds = (
        [fin_luk(k) for k in range(1, max_k + 1)]
        + [lex_omega(k) for k in range(1, max_k + 1)]
        + [CANC_Z, STD_UNIT]
    )
    bl = same_bounds(e, *into)

    def extend(prefix: tuple, live: list, taken: tuple, length: int) -> Iterator[Chain]:
        # live: (items, scan position) of each sum class that takes the prefix;
        # taken: components of each chain of ``into`` that the prefix has taken
        if len(prefix) == length:
            yield chain(prefix, bottom=bl)
            return
        slots = length - len(prefix) - 1  # left after this one
        for k in kinds:
            if bl and not prefix and not k.bounded:
                continue
            took = tuple(
                m + (m < a.index and kind_embeds(a.components[m], k))
                for a, m in zip(into, taken)
            )
            # with designated bounds every chain's first component takes slot 0
            if any(a.index - m > slots or (bl and not m) for a, m in zip(into, took)):
                continue
            nxt = [(items, q) for items, p in live if (q := greedy_step(items, p, k, bl)) is not None]
            if nxt:
                yield from extend(prefix + (k,), nxt, took, length)

    if not any(a.index for a in into):
        yield chain((), bottom=bl)
    start = [(items, 0) for items in e.sums]
    for length in range(1, max_index + 1):
        yield from extend((), start, (0,) * len(into), length)


def find_amalgam_bruteforce(
    s: Span, universe: ClassExpr, max_index: int = 3, max_k: int = 7
) -> Optional[Amalgam]:
    """Exhaustive search for a commuting completion inside the universe.

    Targets are drawn lazily from ``universe_chains`` with both codomains
    as ``into``, so the walk builds only targets that both embed into by
    kinds, and the search stops at the first commuting completion in
    (target, left leg, right leg) order.  ``None`` means that no target
    within ``max_index`` and ``max_k`` completes the span, at any scale.  A
    codomain outside the universe embeds into no member, so
    ``check_in_universe`` raises for it without a walk.

    Completion legs are enumerated with scales up to ``D``, the largest
    scale either span leg carries on a cancellative apex component (1 when
    there is none), and no larger scale changes the answer:

    1. The square commutes exactly when the composites agree as data
       (``maps._composite``): equal positions, and ``s_l[i]·x = s_r[i]·y``
       on each cancellative apex component ``i``, where ``s_l``, ``s_r``
       are the span legs' scales and ``x``, ``y`` the completion scales at
       its two images.
    2. No other completion scale enters a composite: a composite keeps
       scale 1 on an apex component without a cancellative coordinate.
    3. The legs are injective, so at fixed positions each completion scale
       enters one equation at most, and the commuting scale tuples form a
       product.  Its lexicographically first element is ``x = s_r[i]/g``,
       ``y = s_l[i]/g`` (``g`` their gcd), and 1 everywhere else; all of
       these are at most ``D``.
    4. So a pair of position choices completes at some scale exactly when
       it completes within ``D``, and its first completing scales are the
       same at every cap ``≥ D``.  Legs come by position choice, then by
       scales, so every such cap returns the same first completion, and a
       completion found at any scale has one within ``D``.
    """
    b, c = s.left.target, s.right.target
    check_in_universe((b, c), universe)
    cap = max(
        (leg.scales[i] for leg in (s.left, s.right)
         for i, k in enumerate(s.apex.components) if k.cancellative),
        default=1,
    )
    for target in universe_chains(universe, max_index, max_k, into=(b, c)):
        # the square commutes exactly when the composites are equal as data
        # (see spans_commute), so each left leg is looked up among the right
        # composites, each kept with the first right leg that gives it; legs
        # are (positions, scales) data until one completes
        by_composite = {}
        for psi2 in embedding_choices(c, target, cap):
            by_composite.setdefault(_composite(*psi2, s.right), psi2)
        for psi1 in embedding_choices(b, target, cap):
            psi2 = by_composite.get(_composite(*psi1, s.left))
            if psi2 is not None:
                return Amalgam(
                    left=ChainMap(b, target, *psi1),
                    right=ChainMap(c, target, *psi2),
                )
    return None


# ---------------------------------------------------------------------------
# Constructive amalgamation
# ---------------------------------------------------------------------------


def _join_kinds(b: Kind, c: Kind) -> Optional[Kind]:
    """The first of ``W n``, ``Z``, ``Wo n``, ``U`` that both kinds embed
    into, ``n`` the lcm of their ``W``/``Wo`` parameters, or ``None`` when
    there is none."""
    n = math.lcm(*(k.k for k in (b, c) if k.tag in (FIN, LEX)))
    for d in (fin_luk(n), CANC_Z, lex_omega(n), STD_UNIT):
        if kind_embeds(b, d) and kind_embeds(c, d):
            return d
    return None


def amalgamate_constructive(s: Span, universe: ClassExpr) -> Optional[Amalgam]:
    """Componentwise amalgamation inside a canonical universe.

    Both codomains are matched against one sum class of the universe; the
    apex components pin down which of their components must share a slot,
    and ``_assemble`` merges the two assignments in item order, giving those
    pairs and the two components of a plain item one slot each and every
    other component a slot of its own.  Raises UnsupportedShapeError when a
    codomain lies outside the universe (the apex embeds into both, so it
    lies inside with them), and returns ``None`` when no alignment gives an
    amalgam.

    The route is complete: it returns ``None`` only when no chain of the
    universe amalgamates the span, at any index, parameter or scale.  Take any
    amalgam ``(D, g, h)`` of the span ``B <- A -> C`` in the universe, and
    let a sum class ``S`` take ``D`` by an assignment ``α``.

    1. ``α∘g.index_map`` and ``α∘h.index_map`` are assignments of ``B`` and
       ``C`` to ``S``.  A component of ``B`` embeds into the component of
       ``D`` it is sent to, which its item admits, and closures are
       transitive (``component_member``).  ``g`` is injective, so a plain
       item takes at most one component.  With designated bounds ``g``
       sends first to first, so the head takes the first component.
    2. The two assignments agree on the apex anchors: the square commutes,
       so ``g`` and ``h`` send the two images of each apex component to one
       component of ``D``.  ``match_assignments`` lists every assignment,
       so the loop reaches this pair.
    3. A shared slot joins two kinds that both embed into one component of
       ``D``: an anchored pair by step 2, and the pair of a plain item
       because the item takes one component of ``D`` at most.  When two
       kinds embed into a kind ``d``, ``_join_kinds`` returns one that
       embeds into ``d`` too.  With ``n`` the lcm of their ``W``/``Wo``
       parameters: both embed into ``W m`` or ``Wo m`` only when ``n``
       divides ``m``, and then ``W n``, ``Z`` or ``Wo n`` does; into ``Z``
       only when both are ``Z``; into ``U`` only when each is ``W k`` or
       ``U``, and then ``W n`` or ``U`` does.  So the item admits the join,
       by transitivity again.  Every other slot keeps its own kind, which
       its item admits by step 1.  A plain item gets one slot at most, and
       with designated bounds the heads share the first slot, so ``S``
       takes the target.
    4. Each apex component reaches its shared slot both ways, at the product
       of its two scales both ways by the crosswise scales, so the square
       commutes.

    So this pair gives an amalgam, if no earlier pair did.

    The amalgam need not be the one ``find_amalgam_bruteforce`` returns:
    the slot joins fix the target, which may differ from the first target
    in search order and may have a larger index.
    """
    b_chain, c_chain = s.left.target, s.right.target
    check_in_universe((b_chain, c_chain), universe)

    f1, f2 = s.left.index_map, s.right.index_map
    for items in universe.sums:
        asgs_c = list(match_assignments(c_chain, items))
        for asg_b in match_assignments(b_chain, items):
            for asg_c in asgs_c:
                if any(asg_b[f1[i]] != asg_c[f2[i]] for i in range(s.apex.index)):
                    continue
                am = _assemble(s, items, asg_b, asg_c)
                if am is not None and member(am.target, universe) and spans_commute(s, am):
                    return am
    return None


def _assemble(s: Span, items: tuple, asg_b, asg_c) -> Optional[Amalgam]:
    """The amalgam that merges the two assignments in one walk over both
    codomains, or ``None`` when a shared slot joins two kinds that have no
    join.

    At each step the two current components share a slot when they sit in
    one item and either the item is plain or they are the two images of one
    apex component.  A shared slot's kind is ``_join_kinds`` of theirs, and
    its scales are the apex's two scales crosswise on a cancellative apex
    component, 1 otherwise.  Otherwise one component takes a slot of its
    own, with its kind at scale 1: the one in the earlier item, and within
    one starred item the left one, unless it is an apex image whose partner
    is still to come.
    """
    b_chain, c_chain = s.left.target, s.right.target
    # each left image of an apex component: its right image and the component
    anchors = {b: (c, i) for i, (b, c) in enumerate(zip(s.left.index_map, s.right.index_map))}
    kinds = []
    b_index_map, b_scales = [], []
    c_index_map, c_scales = [], []
    pb = pc = 0
    while pb < b_chain.index or pc < c_chain.index:
        ib = asg_b[pb] if pb < b_chain.index else len(items)
        ic = asg_c[pc] if pc < c_chain.index else len(items)
        partner, apex_i = anchors.get(pb, (None, None))
        share = ib == ic and (not items[ib].star or partner == pc)
        take_b = share or ib < ic or (ib == ic and partner is None)
        sb = sc = 1
        if share:
            kind = _join_kinds(b_chain.components[pb], c_chain.components[pc])
            if kind is None:
                return None
            if apex_i is not None and s.apex.components[apex_i].cancellative:
                sb, sc = s.right.scales[apex_i], s.left.scales[apex_i]
        else:
            kind = b_chain.components[pb] if take_b else c_chain.components[pc]
        if take_b:
            b_index_map.append(len(kinds))
            b_scales.append(sb)
            pb += 1
        if share or not take_b:
            c_index_map.append(len(kinds))
            c_scales.append(sc)
            pc += 1
        kinds.append(kind)

    target = chain(kinds, bottom=b_chain.bottom)
    if target.index != len(kinds):
        raise AssertionError("slot kinds must be non-trivial")
    left = ChainMap(b_chain, target, tuple(b_index_map), tuple(b_scales))
    right = ChainMap(c_chain, target, tuple(c_index_map), tuple(c_scales))
    return Amalgam(left=left, right=right)


def one_sided_amalgam(s: Span, universe: ClassExpr) -> Optional[Amalgam]:
    """Collapse the right codomain along its largest image-avoiding filter,
    amalgamate the resulting essential span, and compose the collapse into
    the right completion.

    The quotient is a prefix of the right codomain, its cut ``Wo k``
    possibly turned into ``W k``, so it embeds into the codomain and lies in
    the universe with it.  ``None`` means that no chain of the universe
    amalgamates the essential span, at any bound, since
    ``amalgamate_constructive`` is complete.  Raises UnsupportedShapeError
    when a codomain lies outside the universe.
    """
    check_in_universe((s.left.target, s.right.target), universe)
    ess = essentialize(s.right)
    core = amalgamate_constructive(Span(apex=s.apex, left=s.left, right=ess.map), universe)
    if core is None:
        return None
    right = CollapsingMap(source=s.right.target, collapse=ess.theta0, embed=core.right)
    return Amalgam(left=core.left, right=right)
