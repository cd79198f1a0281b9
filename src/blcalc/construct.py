"""Algebra constructors: interval truncations, ordinal sums, disconnected
rotation, and radicals of the representable component kinds."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .core import (
    CANC,
    CANC_Z,
    LEX,
    TRIV,
    TRIVIAL,
    Chain,
    Kind,
    LocalValue,
    chain,
    component_op,
    fin_luk,
    lex_omega,
    local_top,
)


def gamma(group: str, u) -> Kind:
    """Truncate an ordered group to the interval below the strong unit.

    ``("Int", m)`` yields the finite chain with m+1 elements; ``("IntLexInt",
    (m, 0))`` yields the lexicographic chain below (m, 0).
    """
    if group == "Int":
        if not isinstance(u, int) or u < 1:
            raise ValueError(f"unit must be a positive integer, got {u!r}")
        return fin_luk(u)
    if group == "IntLexInt":
        if not (isinstance(u, tuple) and len(u) == 2 and u[1] == 0):
            raise ValueError(f"unit must be of the form (m, 0), got {u!r}")
        m = u[0]
        if not isinstance(m, int) or m < 1:
            raise ValueError(f"unit must have a positive first coordinate, got {u!r}")
        return lex_omega(m)
    raise ValueError(f"unsupported group {group!r}")


def ordinal_sum(parts) -> Chain:
    """Stack chains top-to-bottom-wise; trivial summands contribute nothing."""
    parts = list(parts)
    if not parts:
        raise ValueError("ordinal sum needs at least one part")
    for p in parts[1:]:
        if p.bottom:
            raise ValueError("only the first summand may have designated bounds")
    if parts[0].bottom and parts[0].is_trivial:
        raise ValueError("a designated-bounds first summand must be non-trivial")
    comps = []
    for p in parts:
        comps.extend(p.components)
    return chain(comps, bottom=parts[0].bottom)


# ---------------------------------------------------------------------------
# Disconnected rotation
# ---------------------------------------------------------------------------

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


def disconnected_rotation(base: Chain) -> RotationChain:
    """Rotate a cancellative chain of index <= 1 into an MV-chain."""
    if base.index > 1:
        raise ValueError("rotation base must be a single component")
    kind = base.components[0] if base.components else TRIVIAL
    return RotationChain(kind)


# ---------------------------------------------------------------------------
# Radicals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadicalView:
    """The radical of a bounded component kind, as a kind plus a membership
    predicate on the parent's local values."""

    parent: Kind
    radical_kind: Kind
    contains: Callable[[LocalValue], bool]
    to_radical: Optional[Callable[[LocalValue], LocalValue]]


def radical(kind: Kind) -> RadicalView:
    """Elements all of whose powers stay above the bottom.

    Finite chains and the unit interval are simple, so their radical is
    trivial; the lexicographic chains have cancellative radical isomorphic
    to Z via (k, b) -> b.
    """
    if not kind.bounded:
        raise ValueError(f"{kind} has no designated bottom")
    if kind.tag == LEX:
        k = kind.k
        return RadicalView(
            parent=kind,
            radical_kind=CANC_Z,
            contains=lambda v: v[0] == k,
            to_radical=lambda v: v[1],
        )
    top = local_top(kind)
    return RadicalView(
        parent=kind,
        radical_kind=TRIVIAL,
        contains=lambda v: v == top,
        to_radical=None,
    )


# ---------------------------------------------------------------------------
# Rotation embeddings into lexicographic chains
# ---------------------------------------------------------------------------


def rotation_embed_into(r: RotationChain, target: Kind, verify_cap: int = 10):
    """The canonical embedding of a rotated cancellative chain into Wo k.

    Maps (1, b) to (k, b) and (0, b) to (0, -b); bounds go to bounds.  The
    map is verified to be an injective homomorphism on the window of base
    values in [-verify_cap, 0]; failure there signals an internal bug, so it
    raises rather than returning a domain answer.
    """
    if target.tag != LEX:
        raise ValueError(f"target must be a lexicographic kind, got {target}")
    k = target.k

    if r.base.tag == TRIV:
        def emb(p: RotValue) -> LocalValue:
            return (k, 0) if p[0] == 1 else (0, 0)
    else:
        def emb(p: RotValue) -> LocalValue:
            sign, b = p
            return (k, b) if sign == 1 else (0, -b)

    window = r.window(verify_cap)
    seen = {}
    for p in window:
        v = emb(p)
        if v in seen:
            raise AssertionError(f"rotation embedding not injective at {p}")
        seen[v] = p
    for p in window:
        for q in window:
            if rot_le(r, p, q) != (emb(p) <= emb(q)):
                raise AssertionError(f"rotation embedding not monotone at {p}, {q}")
            for op in ("mul", "imp", "meet", "join"):
                lhs = emb(rot_op(r, op, p, q))
                rhs = component_op(target, op, emb(p), emb(q))
                if lhs != rhs:
                    raise AssertionError(
                        f"rotation embedding breaks {op} at {p}, {q}: {lhs} != {rhs}"
                    )
    return emb
