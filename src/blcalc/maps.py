"""Embeddings between structural chains, their filters and quotients, and
the essential-embedding machinery.

An embedding of ordinal sums is an order-embedding of component positions
together with a local embedding per component.  The local possibilities are
rigid for the representable kinds:

  W k  -> W n    exactly when k | n, via i -> i*(n/k)
  W k  -> Wo n   exactly when k | n, via i -> (i*(n/k), 0)
  W k  -> U      via i -> i/k
  Z    -> Z      one per positive integer scale s, via b -> s*b
  Z    -> Wo n   one per scale, into the radical: b -> (n, s*b)
  Wo k -> Wo n   exactly when k | n, one per scale: (a, b) -> (a*(n/k), s*b)
  U    -> U      the identity

Nothing cancellative or lexicographic embeds into U, and nothing infinite
embeds into a finite chain.  Cancellative coordinates make some families
infinite, so enumeration takes a scale cap (canonical representative:
scale 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Optional

from .core import (
    CANC,
    FIN,
    LEX,
    UNIT,
    Chain,
    Element,
    Kind,
    LocalValue,
    TOP,
    chain,
    element,
    fin_luk,
)


@dataclass(frozen=True)
class LocalMap:
    """A local embedding of one component kind into another."""

    src: Kind
    dst: Kind
    scale: int = 1

    def to_json(self) -> dict:
        return {"src": repr(self.src), "dst": repr(self.dst), "scale": self.scale}


def apply_local(lm: LocalMap, v: LocalValue) -> LocalValue:
    s, d = lm.src.tag, lm.dst.tag
    if s == FIN and d == FIN:
        return v * (lm.dst.k // lm.src.k)
    if s == FIN and d == LEX:
        return (v * (lm.dst.k // lm.src.k), 0)
    if s == FIN and d == UNIT:
        return Fraction(v, lm.src.k)
    if s == CANC and d == CANC:
        return lm.scale * v
    if s == CANC and d == LEX:
        return (lm.dst.k, lm.scale * v)
    if s == LEX and d == LEX:
        a, b = v
        return (a * (lm.dst.k // lm.src.k), lm.scale * b)
    if s == UNIT and d == UNIT:
        return v
    raise ValueError(f"no local map from {lm.src} to {lm.dst}")


def local_embeddings(src: Kind, dst: Kind, scale_cap: int = 4) -> list:
    """All local embeddings of one kind into another, scale-capped: scales
    1 to ``scale_cap`` when the source has a cancellative coordinate, the
    single rigid map otherwise."""
    s, d = src.tag, dst.tag
    if (s == CANC and d in (CANC, LEX)) or (s == d == LEX and dst.k % src.k == 0):
        return [LocalMap(src, dst, scale=n) for n in range(1, scale_cap + 1)]
    if (s == FIN and (d == UNIT or (d in (FIN, LEX) and dst.k % src.k == 0))) or (
        s == d == UNIT
    ):
        return [LocalMap(src, dst)]
    return []


@dataclass(frozen=True)
class ChainMap:
    """An embedding of structural chains: target positions per source
    component plus the local embedding used at each."""

    source: Chain
    target: Chain
    index_map: tuple  # strictly increasing target positions, one per source comp
    locals: tuple  # LocalMap per source component

    def to_json(self) -> dict:
        return {
            "source": repr(self.source),
            "target": repr(self.target),
            "index_map": [[i, p] for i, p in enumerate(self.index_map)],
            "component_maps": [lm.to_json() for lm in self.locals],
            "embedding": True,
        }

    def __repr__(self):
        pairs = ",".join(f"{i}->{p}" for i, p in enumerate(self.index_map))
        return f"<{self.source!r} into {self.target!r} [{pairs}]>"


def identity_map(c: Chain) -> ChainMap:
    return ChainMap(
        source=c,
        target=c,
        index_map=tuple(range(c.index)),
        locals=tuple(LocalMap(k, k) for k in c.components),
    )


def apply_map(m: ChainMap, x: Element) -> Element:
    if x.is_top:
        return TOP
    pos = m.index_map[x.ci]
    return element(m.target, pos, apply_local(m.locals[x.ci], x.value))


def compose(outer: ChainMap, inner: ChainMap) -> ChainMap:
    """outer o inner, defined when the local composites are representable."""
    if inner.target.components != outer.source.components:
        raise ValueError("maps do not compose")
    locs = []
    for i in range(inner.source.index):
        lm1 = inner.locals[i]
        lm2 = outer.locals[inner.index_map[i]]
        locs.append(_compose_local(lm2, lm1))
    return ChainMap(
        source=inner.source,
        target=outer.target,
        index_map=tuple(outer.index_map[p] for p in inner.index_map),
        locals=tuple(locs),
    )


def _compose_local(lm2: LocalMap, lm1: LocalMap) -> LocalMap:
    if lm1.dst != lm2.src:
        raise ValueError("local maps do not compose")
    # scales multiply on the cancellative coordinate; the W-multipliers are
    # implicit in the kind parameters, and a finite source has no
    # cancellative coordinate
    scale = 1 if lm1.src.tag == FIN else lm1.scale * lm2.scale
    return LocalMap(lm1.src, lm2.dst, scale=scale)


def verify_embedding(m: ChainMap) -> bool:
    """Decide exactly whether the data of ``m`` is an embedding.

    An embedding is a strictly increasing choice of target positions,
    first-to-first when bounds are designated, together with one legal
    local embedding per component (see the module docstring), so no element
    needs to be evaluated.  Malformed data gives ``False``.
    """
    src, tgt = m.source, m.target
    if src.bottom != tgt.bottom:
        return False
    if len(m.index_map) != src.index or len(m.locals) != src.index:
        return False
    positions = (-1, *m.index_map, tgt.index)
    if any(not p < q for p, q in zip(positions, positions[1:])):
        return False
    # the bottom goes to the bottom: the first component to the first, and
    # the trivial chain, whose bottom is its top, only to the trivial chain
    if src.bottom and (m.index_map[0] if m.index_map else tgt.index) != 0:
        return False
    for kind, p, lm in zip(src.components, m.index_map, m.locals):
        dst = tgt.components[p]
        if (lm.src, lm.dst) != (kind, dst) or not local_embeddings(kind, dst, 1):
            return False
        if kind.tag in (CANC, LEX) and lm.scale < 1:
            return False
    return True


def position_choices(a: Chain, b: Chain):
    """Increasing tuples of b's component positions for a's components,
    first-to-first when bounds are designated (a non-trivial)."""
    if a.bottom:
        return ((0,) + rest for rest in combinations(range(1, b.index), a.index - 1))
    return combinations(range(b.index), a.index)


def enumerate_embeddings(a: Chain, b: Chain, scale_cap: int = 4) -> list:
    """All embeddings of a into b (cancellative scales capped), sorted by
    position choice then by local scales."""
    if a.bottom != b.bottom:
        raise ValueError("designated-bounds mismatch between source and target")
    if a.is_trivial:
        if a.bottom and not b.is_trivial:
            return []  # the collapsed bottom cannot reach the target bottom
        return [ChainMap(a, b, (), ())]
    if a.index > b.index:
        return []
    out = []
    for positions in position_choices(a, b):
        per_comp = [
            local_embeddings(a.components[i], b.components[p], scale_cap)
            for i, p in enumerate(positions)
        ]
        if any(not opts for opts in per_comp):
            continue
        for locs in product(*per_comp):
            out.append(ChainMap(a, b, tuple(positions), tuple(locs)))
    return out


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


@dataclass(frozen=True)
class FilterChain:
    """All filters of a chain, ordered by decreasing inclusion."""

    chain: Chain
    filters: tuple

    @property
    def smallest_nontrivial(self) -> Optional[Filter]:
        if len(self.filters) < 2:
            return None
        return self.filters[-2]


def filters(c: Chain) -> FilterChain:
    """The inclusion-ordered filter list: one tail filter per cut position
    plus one radical refinement per lexicographic component."""
    out = []
    for cut in range(c.index + 1):
        out.append(Filter(cut, False))
        if cut < c.index and c.components[cut].tag == LEX:
            out.append(Filter(cut, True))
    return FilterChain(chain=c, filters=tuple(out))


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
    nontrivial filter of the target identifies two image points: the last
    source component must land in the last target component, and when that
    target component is lexicographic the image must dip into its radical
    below the top.
    """
    if m.source.is_trivial:
        return m.target.is_trivial
    if m.index_map[-1] != m.target.index - 1:
        return False
    if m.target.components[-1].tag == LEX:
        return m.locals[-1].src.tag in (CANC, LEX)
    return True


def collapse_after(m: ChainMap, f: Filter) -> Optional[ChainMap]:
    """``m`` followed by the collapse of the target filter ``f``, as an
    embedding into the quotient; ``None`` when the collapse identifies image
    points.

    Image components strictly below the cut pass through unchanged.  The
    last image component may sit at a radical cut only when its source is
    finite: the image then meets the radical at the top alone, and the local
    map degrades to the finite chain on the first coordinate.
    """
    locs = m.locals
    if not m.source.is_trivial and f.cut <= m.index_map[-1]:
        last = m.locals[-1]
        if not (f.cut == m.index_map[-1] and f.radical and last.src.tag == FIN):
            return None
        locs = locs[:-1] + (LocalMap(last.src, fin_luk(last.dst.k)),)
    q, _ = quotient_by_filter(m.target, f)
    return ChainMap(source=m.source, target=q, index_map=m.index_map, locals=locs)


@dataclass(frozen=True)
class Essentialization:
    """Largest congruence of the target that misses the image, and the
    induced essential embedding into the quotient."""

    theta0: Filter
    quotient: Chain
    map: ChainMap


def essentialize(m: ChainMap) -> Essentialization:
    """Quotient the target by the largest filter whose congruence restricts
    trivially to the image; the induced embedding is essential."""
    for theta0 in filters(m.target).filters:
        induced = collapse_after(m, theta0)
        if induced is not None:
            break
    if not is_essential_embedding(induced):
        raise AssertionError("essentialization produced a non-essential map")
    return Essentialization(theta0=theta0, quotient=induced.target, map=induced)
