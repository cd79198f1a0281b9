"""Decompose finite chains given by tables into ordinal sums of finite
Wajsberg components, and flatten structural chains back to tables."""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Chain,
    Kind,
    RawChain,
    chain,
    check_axioms,
    component_runs,
    enumerate_elements,
    fin_luk,
    in_one_component,
    is_ordinal_sum_table,
    ordinal_sum_table,
)


def _require_finite(c: Chain) -> None:
    if not c.is_finite:
        raise ValueError(f"{c!r} has symbolic components")


def finite_elements(c: Chain) -> list:
    """All elements of a fully finite chain, ascending (top last)."""
    _require_finite(c)
    return enumerate_elements(c, caps=1)


def flatten(c: Chain) -> RawChain:
    """Tabulate a fully finite chain; index order is element order.

    Raises ``ValueError`` above ``core.MAX_TABLE_SIZE`` elements."""
    _require_finite(c)
    return ordinal_sum_table([k.k for k in c.components], c.bottom)


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
    return in_one_component(t, a, b)


def classify_component(t: RawChain, block) -> Kind:
    """Identify a component block (indices below top) as a finite chain kind.

    The block plus the top must carry the table ``ordinal_sum_table([m])``,
    m the block size, under the order isomorphism sending the i-th smallest
    block element to i.  The top lies in every component, so a block must
    not hold it.
    """
    block = sorted(block)
    if t.top in block:
        raise ValueError("the top lies in every component")
    if not all(0 <= e < t.size for e in block):
        raise ValueError("element index out of range")
    if len(set(block)) != len(block):
        raise ValueError("block repeats an element")
    kind = fin_luk(len(block))  # an empty block fails here, before any table is read
    elems = block + [t.top]
    luk = ordinal_sum_table([len(block)])
    for i, x in enumerate(elems):
        for j, y in enumerate(elems):
            for op in ("mul", "imp"):
                if getattr(t, op)[x][y] != elems[getattr(luk, op)[i][j]]:
                    raise ValueError(
                        f"block {block} is not a Wajsberg component: {op} at ({x},{y})"
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
    equals the ordinal-sum table its runs spell.  Any other table
    raises the failures that ``check_axioms`` reports for it.
    """
    blocks = component_runs(t)
    c = chain((fin_luk(len(block)) for block in blocks), bottom=t.bottom)
    if not is_ordinal_sum_table(t, blocks):
        report = check_axioms(t)
        if report.is_basic_hoop_chain:
            raise AssertionError(f"a basic-hoop chain table is not the flattening of {c!r}")
        raise ValueError(f"axiom check failed: {report.failures!r}")
    return Decomposition(source=t, chain=c, blocks=blocks)
