"""Exact element model for totally ordered basic hoops and BL-chains.

A chain is an ordinal sum of sum-irreducible Wajsberg components, all
sharing a single top element.  Five component kinds are representable:

  W k   the finite Lukasiewicz chain with k+1 elements (local values 0..k)
  Wo k  the lexicographic chain on pairs below (k, 0) in Z x_lex Z
  Z     the negative cone of the integers (local values <= 0)
  U     the rationals of [0, 1] under the standard MV operations
  T     the one-element hoop

Every operation is exact: integers, integer pairs, and Fractions.  Values
of the infinite kinds are manipulated symbolically, and no decision samples
them on windows: the package evaluates elements only in ``chain_op``, for
``chain eval``, and names them only by ``element_at``, for a countermodel;
the element listings and truncation windows live with the test oracles.

Fully finite chains also come as operation tables, ``RawChain``s, over the
indices of their elements.  ``RunForm`` states the ordinal-sum rules on
those indices, ``table_rows`` writes a chain's table from them as slices of
the index tuple, ``ordinal_sum_of`` recognises a sum's table by building
its candidate's rows, and ``check_axioms`` checks the laws on any table.  A
table that cannot be read or is no ``RawChain`` raises ``TableError``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import accumulate, compress, count, pairwise, repeat
from operator import and_, eq, getitem, ne
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


class ModeMismatchError(ValueError):
    """Inputs that disagree on designated bounds: a BL-chain or BL class
    where a hoop one is given, or the reverse."""


class NotLocallyFiniteError(ValueError):
    """A chain with symbolic components where a fully finite one is needed."""


def same_bounds(*xs) -> bool:
    """The designated bounds that every chain or class expression of ``xs``
    carries, ``False`` for none; raises ``ModeMismatchError`` naming the
    first pair that disagrees."""
    prev = xs[0] if xs else None
    for x in xs:
        if x.bottom != prev.bottom:
            raise ModeMismatchError(f"{prev!r} and {x!r} disagree on designated bounds")
        prev = x
    return prev is not None and prev.bottom


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
        """Number of elements of a fully finite chain; the one check that a
        chain is finite, raising ``NotLocallyFiniteError`` otherwise."""
        if not self.is_finite:
            raise NotLocallyFiniteError(f"{self!r} has symbolic components")
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


def element_at(c: Chain, i: int) -> Element:
    """The ``i``-th element of a fully finite chain, ascending, top last,
    found by walking the components, with no list built; reading
    ``c.size`` refuses a symbolic chain, and an index outside
    0 .. size - 1 raises ``ValueError``."""
    if not 0 <= i < c.size:
        raise ValueError(f"element index {i} out of range for {c!r}")
    for ci, kind in enumerate(c.components):
        if i < kind.k:
            return Element(ci, i)
        i -= kind.k
    return TOP


# ---------------------------------------------------------------------------
# Raw finite chains given by operation tables
# ---------------------------------------------------------------------------


class TableError(ValueError):
    """A table that is no ``RawChain``: a size, shape, entry or JSON schema
    that the checks refuse, a table above ``MAX_TABLE_SIZE``, or a table
    file that cannot be read."""


@dataclass(frozen=True)
class RawChain:
    """A finite chain presented by mul/imp tables over indices 0..n-1.

    Element order is index order; index n-1 is the unit (and top); meet and
    join are min and max of indices.

    The rows are stored as tuples.  Each table is checked after it is
    copied, ``mul`` first: its shape, then that every entry has type
    ``int``, then that every entry is an index.  Each check reads a row at
    a time in C, and the type check comes first because ``True`` and
    ``1.0`` equal the index 1.  Each check raises ``TableError``.
    """

    size: int
    mul: tuple
    imp: tuple
    bottom: bool = False

    def __post_init__(self):
        # bool is a subclass of int, but true and false are not indices
        n = self.size
        if type(n) is not int or n < 1:
            raise TableError("size must be an integer >= 1")
        ints, indices = {int}, frozenset(range(n))
        for name in ("mul", "imp"):
            tab = tuple(map(tuple, getattr(self, name)))
            object.__setattr__(self, name, tab)
            if len(tab) != n or set(map(len, tab)) != {n}:
                raise TableError(f"{name} table is not {n}x{n}")
            if not (all(ints.issuperset(map(type, row)) for row in tab)
                    and all(map(indices.issuperset, tab))):
                raise TableError(f"{name} table has entries outside the indices 0..{n - 1}")

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
            raise TableError("table JSON must be an object with size, mul and imp")
        bottom = data.get("bottom_designated", False)
        if type(bottom) is not bool:
            raise TableError("table JSON bottom_designated must be true or false")
        try:
            return RawChain(size=data["size"], mul=data["mul"], imp=data["imp"], bottom=bottom)
        except TypeError:
            raise TableError("table JSON mul and imp must be lists of rows") from None


# A table of n elements holds 2 n^2 entries; the limit keeps a mistyped size
# such as W100000 from trying to allocate 10^10 of them.
MAX_TABLE_SIZE = 1000
# A RunForm holds three list slots, 24 B, per element; the limit
# keeps a mistyped size such as W1000000000 from trying to allocate 30 GB.
MAX_FORM_SIZE = 1_000_000


class RunForm:
    """Fully finite chains side by side on one index space, operated on by
    the rules of the ordinal sum of finite Lukasiewicz chains, with no table.
    This is the one statement of those rules on index tuples, and
    ``table_rows`` is their row form: it writes the table of one chain as
    the rows these rules give, from slices of the index tuple.

    Each chain takes the next block of indices, its elements ascending with
    its top last, so ``blocks[i]`` is the range of chain ``i``.  Index x
    stores the start s and end e of the run it lies in, a run of m elements
    taking the indices s .. e - 1 with e = s + m, and the top t of its
    chain; a top lies in no run and stores s = e = t.  For x and y of one
    chain:

      x*y  = max(x + y - e, s) when x and y lie in one run, else min(x, y)
      x->y = t when x <= y, else e - x + y when they lie in one run, else y

    and meet and join are min and max.  ``bottom`` is the chains' designated
    bounds, as ``same_bounds`` returns them.  Building the form costs O(n), and
    each operation O(1); the operations apply pointwise to equally long
    tuples of indices and return tuples.  Before building anything it
    raises, in this order, ``ModeMismatchError`` for chains that disagree
    on designated bounds, ``NotLocallyFiniteError`` for a symbolic chain,
    and ``ValueError`` above ``MAX_FORM_SIZE`` elements in all.
    """

    __slots__ = ("start", "end", "top", "blocks", "bottom")

    def __init__(self, chains):
        self.bottom = same_bounds(*chains)
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
    """The mul and imp rows of a fully finite chain: the row form of
    ``RunForm``'s rules, index order being element order.

    Each row is written from slices of idx = (0, 1, .., n - 1), the runs
    s .. e - 1 read off ``c.components``.  For x in the run s .. e - 1,
    the form's rules give y in both tables against an index y < s of an
    earlier run, and against an index of a later run or the top, x for mul
    and the top for imp.  Inside the run, x*y = max(x + y - e, s) is s for
    the first e - x + 1 indices y = s .. e + s - x (the whole run when
    x = s) and then runs s + 1 .. x - 1; x->y = e - x + y runs
    e + s - x .. e - 1 for y = s .. x - 1, and x->y is the top from y = x
    on.  So, the last s of the run's mul entries being idx[s],

      mul row x = idx[:s] + (s,) * (e - x) + idx[s:x] + (x,) * (n - e)
      imp row x = idx[:s] + idx[s + e - x:e] + (top,) * (n - x)

    and both rows of the top are idx: top*y = y, top->y = y below the top,
    and top->top = top.  That is O(n) Python steps and n^2 entries copied
    in C, with no work per pair of indices.

    Raises ``TableError`` above ``MAX_TABLE_SIZE`` elements, before building
    anything."""
    n = c.size
    if n > MAX_TABLE_SIZE:
        raise TableError(f"a table of {n} elements exceeds MAX_TABLE_SIZE = {MAX_TABLE_SIZE}")
    idx, top = tuple(range(n)), n - 1
    mul, imp = [], []
    for s, e in pairwise(accumulate((kind.k for kind in c.components), initial=0)):
        mul += [idx[:s] + (s,) * (e - x) + idx[s:x] + (x,) * (n - e) for x in range(s, e)]
        imp += [idx[:s] + idx[s + e - x:e] + (top,) * (n - x) for x in range(s, e)]
    return (*mul, idx), (*imp, idx)


def ordinal_sum_of(t: RawChain) -> Optional[Chain]:
    """The ordinal sum of finite Lukasiewicz chains whose table ``t`` is,
    with ``t``'s designated bounds, or ``None``.

    The candidate's runs are cut by ``RunForm``'s rule read at x -> x - 1:
    a run starts at 0 and at each non-top x >= 1 with x -> x - 1 = x - 1,
    and the last run ends at the top; a one-element table has no run.  The
    candidate is returned exactly when its ``table_rows``, written from
    slices of the index tuple, equal ``t``'s rows, one tuple comparison per
    row in C; they compare as they stand, since ``RawChain`` admits int
    entries only.  The cut is exact: for non-top x >= 1 of a sum with x in
    the run s .. e - 1, x -> x - 1 is x - 1 when x - 1 < s, and
    e - 1 >= x when x - 1 >= s, so the runs cut from a sum's table are
    that sum's.  The candidate has ``t.size`` elements, so ``table_rows``
    raises ``TableError`` above ``MAX_TABLE_SIZE``."""
    n = t.size
    # x -> x - 1 against x - 1, for x = 1 .. n - 2
    cuts = compress(count(1), map(eq, map(getitem, t.imp[1:-1], count()), count()))
    starts = [0, *cuts] if n > 1 else []
    c = chain((fin_luk(e - s) for s, e in pairwise(starts + [n - 1])), bottom=t.bottom)
    return c if table_rows(c) == (t.mul, t.imp) else None


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of the law checks on a raw chain."""

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


def _first_difference(rows, wanted) -> Optional[tuple]:
    """The first (row number, column) at which the rows of ``rows``, any
    iterables, differ from the tuples of ``wanted``, or ``None`` when every
    pair agrees; each pair of rows is compared as tuples, in C."""
    for k, row, want in zip(count(), map(tuple, rows), wanted):
        if row != want:
            return k, next(compress(count(), map(ne, row, want)))
    return None


def _generators(mul: tuple) -> list:
    """A generating set of the commutative magma ``mul``, taken greedily
    from the top down: each element that the ones taken before it do not
    generate.  The generated set grows a row at a time: each element it
    gains is multiplied in one pass by every element gained so far, so the
    closure costs n^2 lookups; by commutativity row ``a`` read at ``b``
    is the product in either order."""
    gens, seen = [], set()
    for g in reversed(range(len(mul))):
        if g not in seen:
            gens.append(g)
            new = {g}
            while new:
                seen |= new
                new = set().union(*(map(mul[a].__getitem__, seen) for a in new)) - seen
    return gens


def _associativity_witness(mul: tuple) -> Optional[tuple]:
    """The first (x, y, z) in scan order with (x y) z != x (y z) in the
    commutative ``mul``, or ``None``.

    Light's test decides (Clifford and Preston 1961, section 1.2): the
    elements g with (x g) y = x (g y) for all x and y are closed under
    products, so the law holds when every generator passes, at one row
    comparison per x and generator.  Only a table that fails is scanned,
    one row comparison per (x, y): (x y) z against x (y z) over z, and only
    over y, z >= x.

    That scan finds the first witness.  If (x, y, z) fails, so does
    (z, y, x), since (z y) x = x (y z) and z (y x) = (x y) z by
    commutativity; and so does (y, x, z) or (y, z, x), since if both held,

      (x y) z = (y x) z = y (x z) = y (z x) = (y z) x = x (y z).

    So every element of a failing triple is the first element of a failing
    triple.  For the least x that is the first element of one, every
    failing (x, y, z) then has y, z >= x, and no triple with a smaller
    first element fails, so the scan meets no witness before x and the
    first in scan order at x."""
    if all(_first_difference((map(row.__getitem__, mul[g]) for row in mul),
                             (mul[row[g]] for row in mul)) is None
           for g in _generators(mul)):
        return None
    for x, row in enumerate(mul):
        found = _first_difference((map(row.__getitem__, r[x:]) for r in mul[x:]),
                                  (mul[v][x:] for v in row[x:]))
        if found is not None:
            return x, x + found[0], x + found[1]
    raise AssertionError("Light's test failed on an associative table")


def _residuation_witness(mul: tuple, imp: tuple) -> Optional[tuple]:
    """The first (x, y, z) in scan order with (x y <= z) != (x <= y -> z),
    or ``None``, in one pass per row of ``mul``.

    For v = x y, the law holds at (x, y) for every z exactly when the
    entries of row y of ``imp`` lie below x before column v and not from v
    on: max(imp[y][:v]) < x <= min(imp[y][v:]).  The prefix maxima and the
    suffix minima of the rows, n^2 entries each built in C, make that two
    lookups, and only the first failing (x, y) is scanned over z."""
    n = len(mul)
    before = [tuple(accumulate(row, max, initial=-1)) for row in imp]
    after = [tuple(accumulate(reversed(row), min))[::-1] for row in imp]
    pair = _first_difference(
        (map(and_, map(x.__gt__, map(getitem, before, row)), map(x.__le__, map(getitem, after, row)))
         for x, row in enumerate(mul)),
        repeat((True,) * n))
    if pair is None:
        return None
    x, y = pair
    v = mul[x][y]
    return x, y, next(z for z in range(n) if (v <= z) != (x <= imp[y][z]))


def check_axioms(t: RawChain) -> AxiomReport:
    """Check the residuated-chain laws on a raw table.

    Finite basic-hoop chains are exactly the finite ordinal sums of finite
    Lukasiewicz chains (Agliano and Montagna, 2003), so on a table that
    ``ordinal_sum_of`` recognises, the monoid, residuation, integrality,
    divisibility and prelinearity laws hold unchecked; only the MV
    identity and cancellativity are checked.  Any other table gets every
    check.  Each law of two variables is one pass over the rows that
    compares row x with what the law asks of it, in C, so it costs n^2
    entries.  Associativity is decided by Light's test, at n^2 entries per
    generator, and residuation by one pass per row; only an associativity
    failure scans for its witness, at up to n^3 entries.  Failure witnesses
    are the first counterexamples in scan order: x, then y, then z.
    """
    recognised = ordinal_sum_of(t) is not None
    n, top, mul, imp = t.size, t.top, t.mul, t.imp
    rng = range(n)
    idx = tuple(rng)
    failures = []

    def holds(law, witness, keep=None) -> bool:
        """Record the first ``keep`` coordinates of a counterexample, if
        any; whether the law holds."""
        if witness is not None:
            failures.append((law, witness[:keep]))
        return witness is None

    def mins():
        """Row x of min(x, y), for each x."""
        return (idx[:x] + (x,) * (n - x) for x in rng)

    monoid = recognised or (
        holds("commutativity", _first_difference(mul, zip(*mul)))
        and holds("unit", _first_difference(((row[top],) for row in mul), ((x,) for x in rng)), 1)
        and holds("associativity", _associativity_witness(mul))
    )
    residuation = recognised or holds("residuation", _residuation_witness(mul, imp))
    # integrality is reported without a witness
    integrality = recognised or holds("integrality", _first_difference(
        (map(min, row, m) for row, m in zip(mul, mins())), mul), 0)
    divisibility = recognised or holds("divisibility", _first_difference(
        (map(m.__getitem__, i) for m, i in zip(mul, imp)), mins()))
    prelinearity = recognised or holds("prelinearity", _first_difference(
        (map(max, row, col) for row, col in zip(imp, zip(*imp))), repeat((top,) * n)))
    mv_identity = holds("mv_identity", _first_difference(
        (map(getitem, map(imp.__getitem__, row), rng) for row in imp),
        ((x,) * x + idx[x:] for x in rng)))
    cancellativity = holds("cancellativity", _first_difference(
        (map(i.__getitem__, m) for m, i in zip(mul, imp)), repeat(idx)))

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
