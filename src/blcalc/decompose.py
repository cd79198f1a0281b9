"""Decompose finite chains given by tables into ordinal sums of finite
Wajsberg components, and flatten structural chains back to tables."""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Chain,
    RawChain,
    chain,
    check_axioms,
    component_runs,
    enumerate_elements,
    fin_luk,
    is_ordinal_sum_table,
    table_rows,
)


def finite_elements(c: Chain) -> list:
    """All elements of a fully finite chain, ascending (top last); reading
    ``c.size`` refuses a symbolic chain."""
    c.size
    return enumerate_elements(c, caps=1)


def flatten(c: Chain) -> RawChain:
    """Tabulate a fully finite chain by ``core.table_rows``; index order is
    element order.

    Raises ``ValueError`` above ``core.MAX_TABLE_SIZE`` elements."""
    mul, imp = table_rows(c)
    return RawChain(size=len(mul), mul=mul, imp=imp, bottom=c.bottom)


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
