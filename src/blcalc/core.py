"""Exact element model for totally ordered basic hoops and BL-chains.

A chain is an ordinal sum of sum-irreducible Wajsberg components, all
sharing a single top element.  Five component kinds are representable:

  W k   the finite Lukasiewicz chain with k+1 elements (local values 0..k)
  Wo k  the lexicographic chain on pairs below (k, 0) in Z x_lex Z
  Z     the negative cone of the integers (local values <= 0)
  U     the rationals of [0, 1] under the standard MV operations
  T     the one-element hoop

Every operation is exact: integers, integer pairs, and Fractions.  Values
of the infinite kinds are manipulated symbolically; exhaustive subroutines
work on finite truncation windows.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import product
from typing import Optional, Union

FIN = "W"
LEX = "Wo"
CANC = "Z"
UNIT = "U"
TRIV = "T"

_TAG_RANK = {FIN: 0, LEX: 1, CANC: 2, UNIT: 3, TRIV: 4}

LocalValue = Union[int, tuple, Fraction]


@dataclass(frozen=True)
class Kind:
    """A sum-irreducible component kind, parameterized where applicable."""

    tag: str
    k: int = 0

    def __post_init__(self):
        if self.tag not in _TAG_RANK:
            raise ValueError(f"unknown component tag {self.tag!r}")
        if self.tag in (FIN, LEX) and self.k < 1:
            raise ValueError(f"{self.tag} requires a parameter >= 1, got {self.k}")
        if self.tag in (CANC, UNIT, TRIV) and self.k != 0:
            raise ValueError(f"{self.tag} takes no parameter")

    @property
    def bounded(self) -> bool:
        """Whether the component has a least element of its own."""
        return self.tag in (FIN, LEX, UNIT, TRIV)

    @property
    def finite(self) -> bool:
        return self.tag in (FIN, TRIV)

    @property
    def cancellative(self) -> bool:
        """Whether the component has a cancellative coordinate, on which
        embeddings carry a scale."""
        return self.tag in (CANC, LEX)

    def sort_key(self):
        return (_TAG_RANK[self.tag], self.k)

    def __repr__(self):
        if self.tag in (FIN, LEX):
            return f"{self.tag}{self.k}"
        return self.tag


def fin_luk(k: int) -> Kind:
    return Kind(FIN, k)


def lex_omega(k: int) -> Kind:
    return Kind(LEX, k)


CANC_Z = Kind(CANC)
STD_UNIT = Kind(UNIT)
TRIVIAL = Kind(TRIV)


def kind_embeds(src: Kind, dst: Kind) -> bool:
    """Whether the non-trivial kind ``src`` embeds into ``dst``:

      W k  -> W n, Wo n  exactly when k | n
      Wo k -> Wo n       exactly when k | n
      Z    -> Z, Wo n    (into the radical of Wo n)
      W k  -> U, U -> U

    Nothing cancellative or lexicographic embeds into U, and nothing
    infinite embeds into a finite chain.
    """
    s, d = src.tag, dst.tag
    if s == CANC:
        return dst.cancellative
    if d == UNIT:
        return s in (FIN, UNIT)
    if (s == FIN and d in (FIN, LEX)) or s == d == LEX:
        return dst.k % src.k == 0
    return False


def local_top(kind: Kind) -> LocalValue:
    if kind.tag == FIN:
        return kind.k
    if kind.tag == LEX:
        return (kind.k, 0)
    if kind.tag == CANC:
        return 0
    if kind.tag == UNIT:
        return Fraction(1)
    return 0  # TRIV: lone element


def local_bottom(kind: Kind) -> LocalValue:
    """Least local value; only bounded kinds have one."""
    if kind.tag == FIN:
        return 0
    if kind.tag == LEX:
        return (0, 0)
    if kind.tag == UNIT:
        return Fraction(0)
    if kind.tag == TRIV:
        return 0
    raise ValueError(f"{kind} has no least element")


def value_in_range(kind: Kind, v: LocalValue) -> bool:
    if kind.tag == FIN:
        return isinstance(v, int) and 0 <= v <= kind.k
    if kind.tag == LEX:
        if not (isinstance(v, tuple) and len(v) == 2):
            return False
        a, b = v
        if not (isinstance(a, int) and isinstance(b, int) and 0 <= a <= kind.k):
            return False
        if a == 0 and b < 0:
            return False
        if a == kind.k and b > 0:
            return False
        return True
    if kind.tag == CANC:
        return isinstance(v, int) and v <= 0
    if kind.tag == UNIT:
        return isinstance(v, (Fraction, int)) and 0 <= v <= 1
    return v == 0  # TRIV


def component_op(kind: Kind, op: str, a: LocalValue, b: LocalValue) -> LocalValue:
    """Apply mul/imp/meet/join inside one component (top allowed).

    Local values of every kind compare with ``<=``; lexicographic values are
    tuples, compared lexicographically."""
    if not value_in_range(kind, a) or not value_in_range(kind, b):
        raise ValueError(f"value out of range for {kind}: {a!r}, {b!r}")
    if op == "meet":
        return a if a <= b else b
    if op == "join":
        return b if a <= b else a
    t = kind.tag
    if t == FIN:
        if op == "mul":
            return max(a + b - kind.k, 0)
        if op == "imp":
            return min(kind.k - a + b, kind.k)
    elif t == CANC:
        if op == "mul":
            return a + b
        if op == "imp":
            return min(b - a, 0)
    elif t == LEX:
        a1, b1 = a
        a2, b2 = b
        if op == "mul":
            return max((a1 + a2 - kind.k, b1 + b2), (0, 0))
        if op == "imp":
            return min((kind.k - a1 + a2, b2 - b1), (kind.k, 0))
    elif t == UNIT:
        a = Fraction(a)
        b = Fraction(b)
        if op == "mul":
            return max(a + b - 1, Fraction(0))
        if op == "imp":
            return min(1 - a + b, Fraction(1))
    elif t == TRIV:
        return 0
    raise ValueError(f"unknown operation {op!r}")


@dataclass(frozen=True)
class Element:
    """A chain element: the shared top, or (component index, local value below top)."""

    ci: int
    value: Optional[LocalValue]

    @property
    def is_top(self) -> bool:
        return self.ci < 0

    def __repr__(self):
        if self.is_top:
            return "top"
        return f"({self.ci}|{self.value})"


TOP = Element(-1, None)


@dataclass(frozen=True)
class Chain:
    """An ordinal sum of non-trivial component kinds with one shared top.

    The trivial chain is represented by an empty component tuple.  When
    ``bottom`` is set the chain is a BL-chain: its least element is part of
    the signature and the first component is the MV part.
    """

    components: tuple = ()
    bottom: bool = False

    @property
    def index(self) -> int:
        return len(self.components)

    @property
    def is_trivial(self) -> bool:
        return not self.components

    @property
    def is_finite(self) -> bool:
        return all(k.finite for k in self.components)

    @property
    def size(self) -> int:
        """Number of elements of a fully finite chain."""
        if not self.is_finite:
            raise ValueError("infinite chain has no size")
        return 1 + sum(k.k for k in self.components)

    def __repr__(self):
        from .dsl import pretty_chain

        return pretty_chain(self)


def chain(kinds, bottom: bool = False) -> Chain:
    """Build a chain, absorbing trivial components and validating the shape."""
    comps = tuple(k for k in kinds if k.tag != TRIV)
    if bottom and comps and not comps[0].bounded:
        raise ValueError("a BL-chain needs a bounded first component")
    return Chain(comps, bottom)


def element(c: Chain, ci: int, value: LocalValue) -> Element:
    """Element constructor; local tops normalize to the shared top."""
    if not (0 <= ci < c.index):
        raise ValueError(f"component index {ci} out of range for {c!r}")
    kind = c.components[ci]
    if not value_in_range(kind, value):
        raise ValueError(f"value {value!r} out of range for {kind}")
    if kind.tag == UNIT:
        value = Fraction(value)
    if value == local_top(kind):
        return TOP
    return Element(ci, value)


def bottom_element(c: Chain) -> Element:
    """Least element of a chain whose first component is bounded."""
    if c.is_trivial:
        return TOP
    return element(c, 0, local_bottom(c.components[0]))


def _check_member(c: Chain, x: Element):
    if x.is_top:
        return
    if not (0 <= x.ci < c.index) or not value_in_range(c.components[x.ci], x.value):
        raise ValueError(f"element {x!r} does not belong to {c!r}")


def chain_op(c: Chain, op: str, x: Element, y: Element) -> Element:
    """Ordinal-sum operation table.

    Within a component the local operation applies.  Across components the
    product is the lower argument, the implication is top when the left
    argument lies strictly below, and the right argument otherwise; meet and
    join are the order extremes.
    """
    _check_member(c, x)
    _check_member(c, y)
    if x.is_top and y.is_top:
        return TOP
    if x.is_top:
        return TOP if op == "join" else y  # 1*y = y, 1->y = y, meet y
    if y.is_top:
        if op == "imp" or op == "join":
            return TOP
        return x
    if x.ci == y.ci:
        v = component_op(c.components[x.ci], op, x.value, y.value)
        return element(c, x.ci, v)
    lo, hi = (x, y) if x.ci < y.ci else (y, x)
    if op in ("mul", "meet"):
        return lo
    if op == "join":
        return hi
    if op == "imp":
        return TOP if x.ci < y.ci else y
    raise ValueError(f"unknown operation {op!r}")


def order_le(c: Chain, x: Element, y: Element) -> bool:
    _check_member(c, x)
    _check_member(c, y)
    if y.is_top:
        return True
    if x.is_top:
        return False
    if x.ci != y.ci:
        return x.ci < y.ci
    return x.value <= y.value


def _window_values(kind: Kind, cap: int) -> list:
    """Local values of one component inside the truncation window, ascending.

    Includes the component bottom where one exists; never the local top.
    """
    t = kind.tag
    if t == FIN:
        return list(range(kind.k))
    if t == CANC:
        return list(range(-cap, 0))
    if t == LEX:
        out = []
        for a in range(kind.k + 1):
            lo = 0 if a == 0 else -cap
            hi = -1 if a == kind.k else cap
            out.extend((a, b) for b in range(lo, hi + 1))
        return out
    if t == UNIT:
        vals = {Fraction(p, q) for q in range(1, cap + 1) for p in range(q)}
        return sorted(vals)
    return []  # TRIV


def enumerate_elements(c: Chain, caps: int = 3) -> list:
    """Window of elements of a chain, ascending and ending with the top.

    Finite kinds enumerate completely; Z/Wo/U kinds truncate to ``caps``.
    """
    if caps < 1:
        raise ValueError("caps must be positive")
    out = []
    for ci, kind in enumerate(c.components):
        out.extend(Element(ci, v) for v in _window_values(kind, caps))
    out.append(TOP)
    return out


# ---------------------------------------------------------------------------
# Raw finite chains given by operation tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RawChain:
    """A finite chain presented by mul/imp tables over indices 0..n-1.

    Element order is index order; index n-1 is the unit (and top); meet and
    join are min and max of indices.
    """

    size: int
    mul: tuple
    imp: tuple
    bottom: bool = False

    def __post_init__(self):
        # bool is a subclass of int, but true and false are not indices
        n = self.size
        if type(n) is not int or n < 1:
            raise ValueError("size must be an integer >= 1")
        for name in ("mul", "imp"):
            tab = tuple(tuple(row) for row in getattr(self, name))
            object.__setattr__(self, name, tab)
            if len(tab) != n or any(len(row) != n for row in tab):
                raise ValueError(f"{name} table is not {n}x{n}")
            if any(not (type(v) is int and 0 <= v < n) for row in tab for v in row):
                raise ValueError(f"{name} table has entries outside the indices 0..{n - 1}")

    @property
    def top(self) -> int:
        return self.size - 1

    def to_json(self) -> dict:
        return {
            "size": self.size,
            "mul": [list(r) for r in self.mul],
            "imp": [list(r) for r in self.imp],
            "bottom_designated": self.bottom,
        }

    @staticmethod
    def from_json(data: dict) -> "RawChain":
        if not isinstance(data, dict) or not {"size", "mul", "imp"} <= data.keys():
            raise ValueError("table JSON must be an object with size, mul and imp")
        bottom = data.get("bottom_designated", False)
        if type(bottom) is not bool:
            raise ValueError("table JSON bottom_designated must be true or false")
        try:
            return RawChain(size=data["size"], mul=data["mul"], imp=data["imp"], bottom=bottom)
        except TypeError:
            raise ValueError("table JSON mul and imp must be lists of rows") from None


# A table of n elements holds 2 n^2 entries; the limit keeps a mistyped size
# such as W100000 from trying to allocate 10^10 of them.
MAX_TABLE_SIZE = 1000
# A RunForm holds three list slots, 24 B, per element; the limit
# keeps a mistyped size such as W1000000000 from trying to allocate 30 GB.
MAX_FORM_SIZE = 1_000_000


class RunForm:
    """Fully finite chains side by side on one index space, operated on by
    the rules of the ordinal sum of finite Lukasiewicz chains, with no table.
    This is the one statement of those rules: a table is a one-chain form
    tabulated by ``table_rows``.

    Each chain takes the next block of indices, its elements ascending with
    its top last, so ``blocks[i]`` is the range of chain ``i``.  Index x
    stores the start s and end e of the run it lies in, a run of m elements
    taking the indices s .. e - 1 with e = s + m, and the top t of its
    chain; a top lies in no run and stores s = e = t.  For x and y of one
    chain:

      x*y  = max(x + y - e, s) when x and y lie in one run, else min(x, y)
      x->y = t when x <= y, else e - x + y when they lie in one run, else y

    and meet and join are min and max.  Building the form costs O(n), and
    each operation O(1); the operations apply pointwise to equally long
    tuples of indices and return tuples.  Raises ``ValueError`` above
    ``MAX_FORM_SIZE`` elements in all, before building anything.
    """

    __slots__ = ("start", "end", "top", "blocks")

    def __init__(self, chains):
        for c in chains:
            if not c.is_finite:
                raise ValueError(f"{c!r} has symbolic components")
        size = sum(c.size for c in chains)
        if size > MAX_FORM_SIZE:
            raise ValueError(f"an index form of {size} elements exceeds MAX_FORM_SIZE = {MAX_FORM_SIZE}")
        start, end, top, blocks = [], [], [], []
        for c in chains:
            lo = len(start)
            for kind in c.components:
                s = len(start)
                start += [s] * kind.k
                end += [s + kind.k] * kind.k
            t = len(start)
            start.append(t)
            end.append(t)
            top += [t] * (t + 1 - lo)
            blocks.append(range(lo, t + 1))
        self.start, self.end, self.top = start, end, top
        self.blocks = tuple(blocks)

    def mul(self, a: tuple, b: tuple) -> tuple:
        S, E = self.start, self.end
        return tuple([
            (x + y - E[x] if x + y - E[x] > S[x] else S[x]) if S[x] == S[y]
            else (x if x < y else y)
            for x, y in zip(a, b)
        ])

    def imp(self, a: tuple, b: tuple) -> tuple:
        S, E, T = self.start, self.end, self.top
        return tuple([
            T[x] if x <= y else (E[x] - x + y if S[x] == S[y] else y)
            for x, y in zip(a, b)
        ])

    def meet(self, a: tuple, b: tuple) -> tuple:
        return tuple(map(min, a, b))

    def join(self, a: tuple, b: tuple) -> tuple:
        return tuple(map(max, a, b))


def table_rows(c: Chain) -> tuple:
    """The mul and imp rows of a fully finite chain, tabulated from its
    ``RunForm``; index order is element order.  Row x, for x in the run
    s .. e - 1 (a top stores s = e), is the indices below s, then x against
    each index of the run, then x for mul and the top for imp up to the end.
    The form is applied once per run, to every pair of its indices.

    Raises ``ValueError`` above ``MAX_TABLE_SIZE`` elements, before building
    anything."""
    if c.is_finite and c.size > MAX_TABLE_SIZE:
        raise ValueError(f"a table of {c.size} elements exceeds MAX_TABLE_SIZE = {MAX_TABLE_SIZE}")
    form = RunForm([c])
    n = len(form.start)
    top = n - 1
    mul, imp = [], []
    for x, s, e in zip(range(n), form.start, form.end):
        if x == s:  # the first index of a run, or the top
            below, run, m = tuple(range(s)), range(s, e), e - s
            xs, ys = tuple([v for v in run for _ in run]), tuple(run) * m
            run_mul, run_imp = form.mul(xs, ys), form.imp(xs, ys)
        i = (x - s) * m
        mul.append(below + run_mul[i:i + m] + (x,) * (n - e))
        imp.append(below + run_imp[i:i + m] + (top,) * (n - e))
    return tuple(mul), tuple(imp)


def ordinal_sum_table(sizes, bottom: bool = False) -> RawChain:
    """The table of the ordinal sum of the finite Lukasiewicz chains W m,
    m in ``sizes``, bottom to top, a BL-chain if ``bottom``."""
    mul, imp = table_rows(chain(map(fin_luk, sizes), bottom))
    return RawChain(size=len(mul), mul=mul, imp=imp, bottom=bottom)


def in_one_component(t: RawChain, a: int, b: int) -> bool:
    """(a -> b) -> b = (b -> a) -> a, without argument checks: on a
    basic-hoop chain, whether non-top a and b lie in one Wajsberg component."""
    imp = t.imp
    return imp[imp[a][b]][b] == imp[imp[b][a]][a]


def component_runs(t: RawChain) -> tuple:
    """Maximal runs of neighbouring non-top elements that lie in one
    component by ``in_one_component``, ascending."""
    runs = []
    for e in range(t.size - 1):
        if runs and in_one_component(t, runs[-1][-1], e):
            runs[-1].append(e)
        else:
            runs.append([e])
    return tuple(tuple(r) for r in runs)


def is_ordinal_sum_table(t: RawChain, runs) -> bool:
    """Whether ``t`` is the table of the ordinal sum its runs spell.  The
    rows compare as they stand, since ``RawChain`` admits int entries only."""
    return table_rows(chain(fin_luk(len(r)) for r in runs)) == (t.mul, t.imp)


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of the exhaustive law checks on a raw chain."""

    commutative_monoid: bool
    residuation: bool
    integrality: bool
    divisibility: bool
    prelinearity: bool
    mv_identity: bool
    cancellativity: bool
    bounded: bool
    failures: tuple = ()  # (law name, witness indices) pairs

    @property
    def is_basic_hoop_chain(self) -> bool:
        return (
            self.commutative_monoid
            and self.residuation
            and self.integrality
            and self.divisibility
            and self.prelinearity
        )

    @property
    def is_bl_chain(self) -> bool:
        return self.is_basic_hoop_chain and self.bounded

    @property
    def is_mv_chain(self) -> bool:
        return self.is_bl_chain and self.mv_identity

    def to_json(self) -> dict:
        laws = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "failures"}
        return {
            **laws,
            "basic_hoop_chain": self.is_basic_hoop_chain,
            "bl_chain": self.is_bl_chain,
            "mv_chain": self.is_mv_chain,
            "failures": [[law, list(w)] for law, w in self.failures],
        }


def check_axioms(t: RawChain) -> AxiomReport:
    """Check the residuated-chain laws on a raw table.

    Finite basic-hoop chains are exactly the finite ordinal sums of finite
    Lukasiewicz chains (Agliano and Montagna, 2003), so on a table equal to
    the ordinal sum its component runs spell, the monoid, residuation,
    integrality, divisibility and prelinearity laws hold unscanned; only
    the MV identity and cancellativity are scanned.  Any other table gets
    every scan.  Failure witnesses are the first ones found in scan order.
    """
    recognised = is_ordinal_sum_table(t, component_runs(t))
    top = t.top
    rng = range(t.size)
    mul, imp = t.mul, t.imp
    failures = []

    def holds(law, counterexamples) -> bool:
        """Record the first counterexample a lazy scan yields, if any;
        whether the law holds."""
        witness = next(counterexamples, None)
        if witness is not None:
            failures.append((law, witness))
        return witness is None

    def pairs():
        return product(rng, rng)

    def triples():
        return product(rng, rng, rng)

    monoid = recognised or (
        holds("commutativity", ((x, y) for x, y in pairs() if mul[x][y] != mul[y][x]))
        and holds("unit", ((x,) for x in rng if mul[x][top] != x))
        and holds("associativity", (
            (x, y, z) for x, y, z in triples() if mul[mul[x][y]][z] != mul[x][mul[y][z]]))
    )
    residuation = recognised or holds("residuation", (
        (x, y, z) for x, y, z in triples() if (mul[x][y] <= z) != (x <= imp[y][z])))
    # integrality is reported without a witness
    integrality = recognised or holds("integrality", (
        () for x, y in pairs() if mul[x][y] > min(x, y)))
    divisibility = recognised or holds("divisibility", (
        (x, y) for x, y in pairs() if mul[x][imp[x][y]] != min(x, y)))
    prelinearity = recognised or holds("prelinearity", (
        (x, y) for x, y in pairs() if max(imp[x][y], imp[y][x]) != top))
    mv_identity = holds("mv_identity", (
        (x, y) for x, y in pairs() if imp[imp[x][y]][y] != max(x, y)))
    cancellativity = holds("cancellativity", (
        (x, y) for x, y in pairs() if imp[x][mul[x][y]] != y))

    return AxiomReport(
        commutative_monoid=monoid,
        residuation=residuation,
        integrality=integrality,
        divisibility=divisibility,
        prelinearity=prelinearity,
        mv_identity=mv_identity,
        cancellativity=cancellativity,
        bounded=t.bottom,
        failures=tuple(failures),
    )
