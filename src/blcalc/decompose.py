"""Decompose finite chains given by tables into ordinal sums of finite
Wajsberg components, and flatten structural chains back to tables."""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Chain,
    Kind,
    RawChain,
    chain,
    chain_op,
    check_axioms,
    enumerate_elements,
    fin_luk,
)


def finite_elements(c: Chain) -> list:
    """All elements of a fully finite chain, ascending (top last)."""
    if not c.is_finite:
        raise ValueError(f"{c!r} has symbolic components")
    return enumerate_elements(c, caps=1)


def flatten(c: Chain) -> RawChain:
    """Tabulate a fully finite chain; index order is element order."""
    elems = finite_elements(c)
    pos = {e: i for i, e in enumerate(elems)}
    n = len(elems)
    mul = tuple(
        tuple(pos[chain_op(c, "mul", x, y)] for y in elems) for x in elems
    )
    imp = tuple(
        tuple(pos[chain_op(c, "imp", x, y)] for y in elems) for x in elems
    )
    return RawChain(size=n, mul=mul, imp=imp, bottom=c.bottom)


def same_component(t: RawChain, a: int, b: int) -> bool:
    """Whether two non-top elements lie in the same Wajsberg component.

    Tests (a -> b) -> b = (b -> a) -> a on the tables.  The top belongs to
    every component, so callers must not ask about it.
    """
    top = t.top
    if a == top or b == top:
        raise ValueError("the top lies in every component")
    if not (0 <= a < t.size and 0 <= b < t.size):
        raise ValueError("element index out of range")
    return t.imp[t.imp[a][b]][b] == t.imp[t.imp[b][a]][a]


def classify_component(t: RawChain, block) -> Kind:
    """Identify a component block (indices below top) as a finite chain kind.

    The block plus the top must carry the Lukasiewicz tables under the order
    isomorphism sending the i-th smallest block element to i.
    """
    block = sorted(block)
    m = len(block)
    idx = {e: i for i, e in enumerate(block)}
    idx[t.top] = m
    kind = fin_luk(m)

    def local(e: int) -> int:
        return idx[e]

    for x in block + [t.top]:
        for y in block + [t.top]:
            got_mul = t.mul[x][y]
            got_imp = t.imp[x][y]
            want_mul = max(local(x) + local(y) - m, 0)
            want_imp = min(m - local(x) + local(y), m)
            if got_mul not in idx or local(got_mul) != want_mul:
                raise ValueError(
                    f"block {block} is not a Wajsberg component: mul at ({x},{y})"
                )
            if got_imp not in idx or local(got_imp) != want_imp:
                raise ValueError(
                    f"block {block} is not a Wajsberg component: imp at ({x},{y})"
                )
    return kind


@dataclass(frozen=True)
class Decomposition:
    """Partition of a finite chain into its ordinal-sum components."""

    source: RawChain
    chain: Chain
    blocks: tuple  # tuple of tuples of element indices, ascending, top excluded

    def to_json(self) -> dict:
        return {
            "components": [
                {"kind": kind.tag, "k": kind.k, "elements": list(block)}
                for kind, block in zip(self.chain.components, self.blocks)
            ],
            "order": "ascending",
            "bottom_designated": self.chain.bottom,
        }


def decompose(t: RawChain) -> Decomposition:
    """Split a finite chain into maximal runs of neighbouring same-component
    elements and read each run of length m as the finite Lukasiewicz chain
    W m.

    One table comparison decides validity.  Finite basic-hoop chains are
    exactly the finite ordinal sums of finite Lukasiewicz chains (Agliano
    and Montagna, 2003), so a table is a basic-hoop chain exactly when it
    equals the flattening of the chain its runs spell.  Any other table
    raises the failures that ``check_axioms`` reports for it.
    """
    blocks = []
    for e in range(t.size - 1):
        if blocks and same_component(t, blocks[-1][-1], e):
            blocks[-1].append(e)
        else:
            blocks.append([e])
    c = chain((fin_luk(len(block)) for block in blocks), bottom=t.bottom)
    if flatten(c) != t:
        report = check_axioms(t)
        if report.is_basic_hoop_chain:
            raise AssertionError(f"a basic-hoop chain table is not the flattening of {c!r}")
        raise ValueError(f"axiom check failed: {report.failures!r}")
    return Decomposition(source=t, chain=c, blocks=tuple(tuple(b) for b in blocks))
