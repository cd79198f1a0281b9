"""Embeddings between structural chains, their filters and quotients, and
the essential-embedding machinery.

An embedding of ordinal sums is an order-embedding of component positions
together with a local embedding per component.  Which kinds embed into
which is ``core.kind_embeds``; each local embedding is rigid up to a scale
``s`` on a cancellative coordinate:

  W k  -> W n    i -> i*(n/k)
  W k  -> Wo n   i -> (i*(n/k), 0)
  W k  -> U      i -> i/k
  Z    -> Z      b -> s*b
  Z    -> Wo n   into the radical: b -> (n, s*b)
  Wo k -> Wo n   (a, b) -> (a*(n/k), s*b)
  U    -> U      the identity

So a local embedding is fixed by the two kinds it joins and its scale, and a
map is its index map plus one scale per source component; the kinds are
read off the two chains.  Cancellative coordinates make some families
infinite, so enumeration takes a scale cap (canonical representative:
scale 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Optional

from .core import (
    FIN,
    LEX,
    Chain,
    Element,
    Kind,
    TOP,
    chain,
    element,
    fin_luk,
    kind_embeds,
    same_bounds,
)


def local_embeddings(src: Kind, dst: Kind, scale_cap: int = 4) -> tuple:
    """The scales of the local embeddings of one kind into another: 1 to
    ``scale_cap`` when the source has a cancellative coordinate, ``(1,)``
    for the single rigid map, ``()`` when there is none."""
    if not kind_embeds(src, dst):
        return ()
    return tuple(range(1, scale_cap + 1)) if src.cancellative else (1,)


@dataclass(frozen=True)
class ChainMap:
    """An embedding of structural chains: a target position and a scale per
    source component.  The local embedding at each position is the one the
    two kinds there admit at that scale (see the module docstring); the
    scale acts only on a cancellative coordinate."""

    source: Chain
    target: Chain
    index_map: tuple  # strictly increasing target positions, one per source comp
    scales: tuple  # one per source component

    def to_json(self) -> dict:
        dst = self.target.components
        return {
            "source": repr(self.source),
            "target": repr(self.target),
            "index_map": [[i, p] for i, p in enumerate(self.index_map)],
            "component_maps": [
                {"src": repr(kind), "dst": repr(dst[p]), "scale": scale}
                for kind, p, scale in zip(self.source.components, self.index_map, self.scales)
            ],
            "embedding": True,
        }

    def __repr__(self):
        pairs = ",".join(f"{i}->{p}" for i, p in enumerate(self.index_map))
        return f"<{self.source!r} into {self.target!r} [{pairs}]>"


def _composite(positions: tuple, scales: tuple, inner: ChainMap) -> tuple:
    """The index map and scales of ``outer o inner``, ``outer`` given as its
    ``positions`` and ``scales``: positions compose, and scales multiply on
    the cancellative coordinate; a source component without one keeps scale
    1.  Two composites out of one chain into one chain are equal as
    functions exactly when these tuples are equal."""
    return (
        tuple(positions[p] for p in inner.index_map),
        tuple(
            s * scales[p] if kind.cancellative else 1
            for kind, p, s in zip(inner.source.components, inner.index_map, inner.scales)
        ),
    )


def compose(outer: ChainMap, inner: ChainMap) -> ChainMap:
    """outer o inner, by ``_composite``."""
    if inner.target != outer.source:
        raise ValueError(f"maps do not compose: {inner.target!r} is not {outer.source!r}")
    return ChainMap(
        inner.source, outer.target, *_composite(outer.index_map, outer.scales, inner)
    )


def verify_embedding(m: ChainMap) -> bool:
    """Decide exactly whether the data of ``m`` is an embedding.

    An embedding is a strictly increasing choice of target positions,
    first-to-first when bounds are designated, each joining two kinds that
    admit a local embedding (see the module docstring), with a positive
    scale on a cancellative coordinate; so no element needs to be
    evaluated.  Malformed data gives ``False``.
    """
    src, tgt = m.source, m.target
    if src.bottom != tgt.bottom:
        return False
    if len(m.index_map) != src.index or len(m.scales) != src.index:
        return False
    positions = (-1, *m.index_map, tgt.index)
    if any(not p < q for p, q in zip(positions, positions[1:])):
        return False
    # the bottom goes to the bottom: the first component to the first, and
    # the trivial chain, whose bottom is its top, only to the trivial chain
    if src.bottom and (m.index_map[0] if m.index_map else tgt.index) != 0:
        return False
    for kind, p, scale in zip(src.components, m.index_map, m.scales):
        if not kind_embeds(kind, tgt.components[p]):
            return False
        if kind.cancellative and scale < 1:
            return False
    return True


def position_choices(a: Chain, b: Chain):
    """Increasing tuples of b's component positions for a's components,
    first-to-first when bounds are designated (a non-trivial)."""
    if a.bottom:
        return ((0,) + rest for rest in combinations(range(1, b.index), a.index - 1))
    return combinations(range(b.index), a.index)


def embedding_choices(a: Chain, b: Chain, scale_cap: int = 4):
    """The index map and scales of every embedding of a into b (cancellative
    scales capped), yielded as ``(positions, scales)`` tuples by position
    choice, then by local scales."""
    same_bounds(a, b)
    if a.is_trivial:
        # a trivial BL-chain's collapsed bottom reaches only a trivial target
        if not a.bottom or b.is_trivial:
            yield (), ()
        return
    if a.index > b.index:
        return
    for positions in position_choices(a, b):
        per_comp = [
            local_embeddings(a.components[i], b.components[p], scale_cap)
            for i, p in enumerate(positions)
        ]
        if all(per_comp):
            for scales in product(*per_comp):
                yield positions, scales


def enumerate_embeddings(a: Chain, b: Chain, scale_cap: int = 4) -> list:
    """All embeddings of a into b (cancellative scales capped), in the order
    of ``embedding_choices``."""
    return [ChainMap(a, b, *leg) for leg in embedding_choices(a, b, scale_cap)]


# ---------------------------------------------------------------------------
# Filters and quotients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Filter:
    """A deductive filter of a structural chain: the tail from component
    ``cut`` upward, optionally thinned to the radical of the cut component
    (lexicographic components only).  cut == index means the trivial filter."""

    cut: int
    radical: bool = False

    def __repr__(self):
        return f"F({self.cut}{'r' if self.radical else ''})"


def filters(c: Chain) -> tuple:
    """All filters of a chain, ordered by decreasing inclusion: one tail
    filter per cut position plus one radical refinement per lexicographic
    component."""
    out = []
    for cut in range(c.index + 1):
        out.append(Filter(cut, False))
        if cut < c.index and c.components[cut].tag == LEX:
            out.append(Filter(cut, True))
    return tuple(out)


def filter_contains(c: Chain, f: Filter, x: Element) -> bool:
    if x.is_top:
        return True
    if x.ci > f.cut:
        return True
    if x.ci == f.cut:
        if not f.radical:
            return True
        return x.value[0] == c.components[f.cut].k
    return False


def quotient_by_filter(c: Chain, f: Filter):
    """Collapse a filter to the top.

    Returns the quotient chain and the projection on elements.  Components
    above the cut vanish; the cut component vanishes too unless the filter
    is its radical, in which case it degrades to the finite chain on its
    first coordinate.
    """
    if not (0 <= f.cut <= c.index):
        raise ValueError(f"invalid filter {f!r} for {c!r}")
    comps = list(c.components[: f.cut])
    if f.radical:
        kind = c.components[f.cut]
        if kind.tag != LEX:
            raise ValueError(f"{kind} has no internal radical filter")
        comps.append(fin_luk(kind.k))
    q = chain(comps, bottom=c.bottom)

    def project(x: Element) -> Element:
        if x.is_top or filter_contains(c, f, x):
            return TOP
        if f.radical and x.ci == f.cut:
            return element(q, x.ci, x.value[0])
        return Element(x.ci, x.value)

    return q, project


# ---------------------------------------------------------------------------
# Essential embeddings
# ---------------------------------------------------------------------------


def is_essential_embedding(m: ChainMap) -> bool:
    """Structural essentiality test.

    An embedding is essential exactly when the congruence of the smallest
    nontrivial filter of the target, ``filters(target)[-2]``, identifies two
    image points: when ``collapse_after`` refuses that collapse.  A trivial
    target has no such filter, and the image of a trivial source is one
    point.
    """
    if m.source.is_trivial or m.target.is_trivial:
        return m.source.is_trivial and m.target.is_trivial
    return collapse_after(m, filters(m.target)[-2]) is None


def collapse_after(m: ChainMap, f: Filter) -> Optional[ChainMap]:
    """``m`` followed by the collapse of the target filter ``f``, as an
    embedding into the quotient; ``None`` when the collapse identifies image
    points.

    Image components strictly below the cut pass through unchanged.  The
    last image component may sit at a radical cut only when its source is
    finite: the image then meets the radical at the top alone, and lands in
    the quotient's finite chain on the first coordinate.
    """
    if not m.source.is_trivial and f.cut <= m.index_map[-1]:
        last = m.source.components[-1]
        if not (f.cut == m.index_map[-1] and f.radical and last.tag == FIN):
            return None
    q, _ = quotient_by_filter(m.target, f)
    return ChainMap(m.source, q, m.index_map, m.scales)


@dataclass(frozen=True)
class Essentialization:
    """Largest congruence of the target that misses the image, and the
    induced essential embedding into the quotient."""

    theta0: Filter
    map: ChainMap  # into the quotient by theta0


def essentialize(m: ChainMap) -> Essentialization:
    """Quotient the target by the largest filter whose congruence restricts
    trivially to the image; the induced embedding is essential."""
    for theta0 in filters(m.target):
        induced = collapse_after(m, theta0)
        if induced is not None:
            break
    if not is_essential_embedding(induced):
        raise AssertionError("essentialization produced a non-essential map")
    return Essentialization(theta0=theta0, map=induced)
