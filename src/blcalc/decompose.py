"""Decompose finite chains given by tables into ordinal sums of finite
Wajsberg components, as ``core.ordinal_sum_of`` recognises them, and flatten
structural chains back to tables by ``core.table_rows``.  This module works
on tables only and names no element."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, pairwise

from .core import Chain, RawChain, check_axioms, ordinal_sum_of, table_rows


def flatten(c: Chain) -> RawChain:
    """Tabulate a fully finite chain by ``core.table_rows``; index order is
    element order.

    Raises ``core.TableError`` above ``core.MAX_TABLE_SIZE`` elements."""
    mul, imp = table_rows(c)
    return RawChain(size=len(mul), mul=mul, imp=imp, bottom=c.bottom)


@dataclass(frozen=True)
class Decomposition:
    """Partition of a finite chain into its ordinal-sum components."""

    chain: Chain

    @property
    def blocks(self) -> tuple:
        """The element indices of each component, ascending, top excluded."""
        ends = accumulate((kind.k for kind in self.chain.components), initial=0)
        return tuple(tuple(range(s, e)) for s, e in pairwise(ends))

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
    """The ordinal sum of finite Lukasiewicz chains whose table ``t`` is,
    as ``core.ordinal_sum_of`` cuts and recognises it.

    Finite basic-hoop chains are exactly the finite ordinal sums of finite
    Lukasiewicz chains (Agliano and Montagna, 2003), so a table that
    ``ordinal_sum_of`` does not recognise is no basic-hoop chain; it raises
    ``ValueError`` with the failures that ``check_axioms`` reports for it.
    """
    c = ordinal_sum_of(t)
    if c is None:
        report = check_axioms(t)
        if report.is_basic_hoop_chain:
            raise AssertionError("a basic-hoop chain table is not an ordinal sum of its runs")
        raise ValueError(f"axiom check failed: {report.failures!r}")
    return Decomposition(c)
