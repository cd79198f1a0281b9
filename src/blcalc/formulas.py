"""Propositional formulas over chains: evaluation, consequence over finite
generator sets, and deductive-interpolant search.

Interpolants are searched inside the algebra of term functions on the shared
variables: starting from the variable projections and constants, the closure
under the pointwise connectives is generated smallest-first; any element
lying between the premise and the conclusion is an interpolant, and its
construction trace is the returned formula.  For varieties generated by
finite chains this closure is finite, so exhausting it without a hit
certifies that no interpolant exists.

A term function is a vector over the points, the valuations of the shared
variables into the generators.  One sweep per formula gives two point sets:
``must_top``, where the premise is top on some extension of the point, and
``may_top``, where the conclusion is top on every extension.  The consequence
holds exactly when ``must_top`` is a subset of ``may_top``, and a vector is an
interpolant exactly when it is top on ``must_top`` and not top off
``may_top``.  ``term_closure`` is the one closure loop: ``find_interpolant``
walks it and ``closure_size`` counts the same elements.

Consequence, the sweeps and the closure compute on the integer indices of
``core.RunForm``, an O(1) rule per operation with no table; values are mapped
back to elements only for a countermodel.  ``eval_formula`` evaluates on
elements, symbolic chains included.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, islice, product
from typing import Mapping, Optional, Sequence, Union

from .core import TOP, Chain, Element, RunForm, bottom_element, chain_op
from .decompose import finite_elements


@dataclass(frozen=True, slots=True)
class Var:
    name: str

    def __repr__(self):
        return self.name


@dataclass(frozen=True, slots=True)
class Const:
    symbol: str  # "1" or "0"

    def __repr__(self):
        return self.symbol


@dataclass(frozen=True, slots=True)
class BinOp:
    op: str  # mul / imp / meet / join
    left: "Formula"
    right: "Formula"

    def __repr__(self):
        return pretty_formula(self)


Formula = Union[Var, Const, BinOp]

_OP_SYMBOL = {"mul": "*", "imp": "->", "meet": "/\\", "join": "\\/"}


def pretty_formula(f: Formula) -> str:
    def render(g: Formula, parent: int) -> str:
        # precedence levels: * = 3, -> = 2, /\ \/ = 1
        if isinstance(g, (Var, Const)):
            return repr(g) if isinstance(g, Var) else g.symbol
        level = {"mul": 3, "imp": 2, "meet": 1, "join": 1}[g.op]
        left = render(g.left, level + (1 if g.op == "imp" else 0))
        right = render(g.right, level if g.op == "imp" else level + 1)
        text = f"{left} {_OP_SYMBOL[g.op]} {right}"
        return f"({text})" if level < parent else text

    return render(f, 0)


class FormulaError(ValueError):
    pass


_FORMULA_TOKEN = re.compile(
    r"\s*(?:(?P<var>[a-z][a-zA-Z0-9_]*)|(?P<const>[01])|"
    r"(?P<op>\*|->|/\\|\\/|\(|\))|(?P<bad>\S))"
)


# Deepest accepted nesting, of parentheses and of connectives alike.  The
# parser recurses a few frames per parenthesis and the evaluators one frame
# per connective, so every formula that parses stays well inside Python's
# default recursion limit.
MAX_FORMULA_DEPTH = 100


def _formula_depth(f: Formula) -> int:
    """Nesting depth of connectives, computed without recursion."""
    deepest, stack = 0, [(f, 0)]
    while stack:
        g, d = stack.pop()
        deepest = max(deepest, d)
        if isinstance(g, BinOp):
            stack += [(g.left, d + 1), (g.right, d + 1)]
    return deepest


def parse_formula(text: str) -> Formula:
    """Parse with precedence * over -> over the lattice connectives; ``->``
    associates to the right.  Formulas nested deeper than
    ``MAX_FORMULA_DEPTH`` are rejected with a ``FormulaError``."""
    tokens = []
    for m in _FORMULA_TOKEN.finditer(text):
        kind, val, pos = m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)
        if kind == "bad":
            raise FormulaError(f"unexpected character {val!r} at {pos}")
        tokens.append((kind, val, pos))
    i = 0
    open_parens = 0

    def too_deep():
        return FormulaError(f"formula nests deeper than {MAX_FORMULA_DEPTH} levels")

    def peek():
        return tokens[i][1] if i < len(tokens) else None

    def take():
        nonlocal i
        tok = tokens[i]
        i += 1
        return tok

    def parse_atom() -> Formula:
        nonlocal open_parens
        if i >= len(tokens):
            raise FormulaError("unexpected end of formula")
        kind, val, pos = take()
        if kind == "var":
            return Var(val)
        if kind == "const":
            return Const(val)
        if val == "(":
            open_parens += 1
            if open_parens > MAX_FORMULA_DEPTH:
                raise too_deep()
            f = parse_lattice()
            if peek() != ")":
                raise FormulaError(f"missing ')' at {pos}")
            take()
            open_parens -= 1
            return f
        raise FormulaError(f"unexpected {val!r} at {pos}")

    def parse_mul() -> Formula:
        f = parse_atom()
        while peek() == "*":
            take()
            f = BinOp("mul", f, parse_atom())
        return f

    def parse_imp() -> Formula:
        operands = [parse_mul()]
        while peek() == "->":
            take()
            operands.append(parse_mul())
        f = operands.pop()
        while operands:
            f = BinOp("imp", operands.pop(), f)
        return f

    def parse_lattice() -> Formula:
        f = parse_imp()
        while peek() in ("/\\", "\\/"):
            _, val, _ = take()
            f = BinOp("meet" if val == "/\\" else "join", f, parse_imp())
        return f

    f = parse_lattice()
    if i != len(tokens):
        raise FormulaError(f"trailing input {tokens[i][1]!r} at {tokens[i][2]}")
    if _formula_depth(f) > MAX_FORMULA_DEPTH:
        raise too_deep()
    return f


def formula_vars(f: Formula) -> frozenset:
    if isinstance(f, Var):
        return frozenset([f.name])
    if isinstance(f, Const):
        return frozenset()
    return formula_vars(f.left) | formula_vars(f.right)


def eval_formula(f: Formula, c: Chain, valuation: Mapping[str, Element]) -> Element:
    if isinstance(f, Var):
        if f.name not in valuation:
            raise FormulaError(f"unassigned variable {f.name!r}")
        return valuation[f.name]
    if isinstance(f, Const):
        if f.symbol == "1":
            return TOP
        if not c.bottom:
            raise FormulaError("constant 0 needs designated bounds")
        return bottom_element(c)
    return chain_op(
        c,
        f.op,
        eval_formula(f.left, c, valuation),
        eval_formula(f.right, c, valuation),
    )


def _same_bounds(gens: Sequence[Chain]) -> None:
    """A generator list is one variety's: all bounded or all unbounded."""
    if len({g.bottom for g in gens}) > 1:
        raise ValueError("generators must agree on designated bounds")


# Valuations are evaluated this many at a time, so a scan's memory stays
# bounded however many valuations a generator has.
_BLOCK_ROWS = 4096


def _valuation_blocks(names: Sequence[str], gens: Sequence[Chain], form: RunForm):
    """Yield (generator index, first row, columns) for the valuations of
    ``names`` into each generator, in generator order and then product
    order, at most ``_BLOCK_ROWS`` rows at a time.  ``columns`` maps each
    name to its values, as indices of ``form = RunForm(gens)``, and the
    constant 1, and 0 on a bounded generator, to theirs."""
    for gi, block in enumerate(form.blocks):
        valuations = product(block, repeat=len(names))
        row = 0
        while rows := list(islice(valuations, _BLOCK_ROWS)):
            columns = dict(zip(names, zip(*rows)))
            columns["1"] = (block[-1],) * len(rows)
            if gens[gi].bottom:
                columns["0"] = (block[0],) * len(rows)
            yield gi, row, columns
            row += len(rows)


def _values(f: Formula, columns: dict, form: RunForm) -> tuple:
    """The values of ``f`` on one block of ``_valuation_blocks``."""
    if isinstance(f, BinOp):
        op = getattr(form, f.op)
        return op(_values(f.left, columns, form), _values(f.right, columns, form))
    if isinstance(f, Var):
        return columns[f.name]
    if f.symbol not in columns:
        raise FormulaError("constant 0 needs designated bounds")
    return columns[f.symbol]


@dataclass(frozen=True)
class ConsequenceResult:
    holds: bool
    countermodel: Optional[tuple] = None  # (generator index, valuation dict)


def consequence(
    premise: Formula, conclusion: Formula, gens: Sequence[Chain]
) -> ConsequenceResult:
    """Truth preservation on every valuation into every generator chain.

    Validity on the generators settles validity in the generated variety,
    consequence being preserved under subalgebras and products.  The
    countermodel is the first failing valuation in generator order and then
    in product order of the ascending elements.
    """
    _same_bounds(gens)
    names = sorted(formula_vars(premise) | formula_vars(conclusion))
    form = RunForm(gens)
    for gi, _, columns in _valuation_blocks(names, gens, form):
        rows = zip(
            _values(premise, columns, form),
            _values(conclusion, columns, form),
            columns["1"],
        )
        for r, (x, y, top) in enumerate(rows):
            if x == top and y != top:
                elems, lo = finite_elements(gens[gi]), form.blocks[gi][0]
                val = {name: elems[columns[name][r] - lo] for name in names}
                return ConsequenceResult(False, (gi, val))
    return ConsequenceResult(True)


class ClosureLimitError(RuntimeError):
    pass


class NotLocallyFiniteError(ValueError):
    pass


def _points(shared: Sequence[str], form: RunForm) -> list:
    """The (generator block, shared-variable values) pairs, in generator
    order and then product order; position p of every closure vector is the
    value at the p-th pair, an index of ``form``."""
    return [
        (block, combo)
        for block in form.blocks
        for combo in product(block, repeat=len(shared))
    ]


def term_closure(shared: Sequence[str], gens: Sequence[Chain]):
    """Yield (vector, term) once for each term function in the shared
    variables, smallest-first.  A vector holds one index of
    ``RunForm(gens)`` per point of ``_points``.

    The seeds are 1, then 0 when the generators are bounded, then the
    projections in the given variable order.  After them, for each i and each
    j <= i, come mul, meet, join, imp(i, j) and imp(j, i) of the i-th and j-th
    yielded vectors.  The first term reaching a vector is the one yielded.
    """
    _same_bounds(gens)
    form = RunForm(gens)
    points = _points(shared, form)
    seeds = [(tuple(block[-1] for block, _ in points), Const("1"))]
    if gens and gens[0].bottom:
        seeds.append((tuple(block[0] for block, _ in points), Const("0")))
    for vi, name in enumerate(shared):
        seeds.append((tuple(combo[vi] for _, combo in points), Var(name)))

    queue = []
    seen = set()
    for vec, term in seeds:
        if vec not in seen:
            seen.add(vec)
            queue.append((vec, term))
            yield vec, term
    mul, meet, join, imp = form.mul, form.meet, form.join, form.imp
    i = 0
    while i < len(queue):
        vec_i, term_i = queue[i]
        for j in range(i + 1):
            vec_j, term_j = queue[j]
            for vec, op, ta, tb in (
                (mul(vec_i, vec_j), "mul", term_i, term_j),
                (meet(vec_i, vec_j), "meet", term_i, term_j),
                (join(vec_i, vec_j), "join", term_i, term_j),
                (imp(vec_i, vec_j), "imp", term_i, term_j),
                (imp(vec_j, vec_i), "imp", term_j, term_i),
            ):
                if vec not in seen:
                    seen.add(vec)
                    term = BinOp(op, ta, tb)
                    queue.append((vec, term))
                    yield vec, term
        i += 1


def find_interpolant(
    premise: Formula,
    conclusion: Formula,
    gens: Sequence[Chain],
    limit: int = 100_000,
) -> Optional[Formula]:
    """Interpolant in the shared variables, or None when provably none exists.

    Requires the consequence to hold and every generator to be fully finite.
    The closure is walked in the fixed order of ``term_closure``, so the
    returned formula is deterministic.
    """
    _same_bounds(gens)
    for g in gens:
        if not g.is_finite:
            raise NotLocallyFiniteError(
                "unsupported: not locally finite (symbolic generator)"
            )
    shared = sorted(formula_vars(premise) & formula_vars(conclusion))
    form = RunForm(gens)
    tops = [block[-1] for block, _ in _points(shared, form)]
    first_point = list(
        accumulate((len(block) ** len(shared) for block in form.blocks), initial=0)
    )

    def sweep(f: Formula):
        # (point, f is top) for every valuation of the shared variables and
        # then f's others; the rows of one point are consecutive
        names = shared + sorted(formula_vars(f) - set(shared))
        for gi, row, columns in _valuation_blocks(names, gens, form):
            rows_per_point = len(form.blocks[gi]) ** (len(names) - len(shared))
            values = zip(_values(f, columns, form), columns["1"])
            for r, (x, top) in enumerate(values, row):
                yield first_point[gi] + r // rows_per_point, x == top

    # A joint valuation is a point plus independent premise-only and
    # conclusion-only parts, so the consequence holds exactly when must_top is
    # a subset of may_top, the complement of not_may_top.
    must_top = {pt for pt, top in sweep(premise) if top}
    not_may_top = {pt for pt, top in sweep(conclusion) if not top}
    if not must_top.isdisjoint(not_may_top):
        raise ValueError("premise does not entail conclusion on the generators")
    must = [(p, tops[p]) for p in must_top]
    must_not = [(p, tops[p]) for p in not_may_top]
    for n, (vec, term) in enumerate(term_closure(shared, gens), 1):
        if n > limit:
            raise ClosureLimitError(f"closure exceeded {limit} elements")
        if all(vec[p] == top for p, top in must) and not any(
            vec[p] == top for p, top in must_not
        ):
            return term
    return None


def closure_size(premise, conclusion, gens) -> int:
    """Size of the shared-variable term-function closure that
    ``find_interpolant`` walks (diagnostic)."""
    shared = sorted(formula_vars(premise) & formula_vars(conclusion))
    return sum(1 for _ in term_closure(shared, gens))


def dip_report(v) -> dict:
    """Deductive-interpolation verdict for a variety, given by its class
    expression, phrased at the logic level; equivalent to the amalgamation
    classification, so it is the verdict's JSON with ``ap`` read as both."""
    from .classify import classify_ap_bh, classify_ap_bl

    report = (classify_ap_bl(v) if v.bl_mode else classify_ap_bh(v)).to_json()
    ap = report.pop("ap")
    return {
        **report,
        "deductive_interpolation": ap,
        "amalgamation": ap,
        "equivalent_properties": [
            "strong deductive interpolation",
            "strong Robinson property",
        ],
    }


# ---------------------------------------------------------------------------
# Random formula mining (test support; seeded via BLCALC_SEED)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _leaf(symbol: str) -> Formula:
    """One shared node per leaf symbol; nodes are immutable, so the mined
    formulas need not hold a copy per occurrence."""
    return Const(symbol) if symbol in ("0", "1") else Var(symbol)


def random_formula(rng, names: Sequence[str], depth: int, allow_zero: bool) -> Formula:
    if depth <= 0 or rng.random() < 0.3:
        pool = list(names) + (["0", "1"] if allow_zero else ["1"])
        return _leaf(rng.choice(pool))
    op = rng.choice(["mul", "imp", "meet", "join"])
    return BinOp(
        op,
        random_formula(rng, names, depth - 1, allow_zero),
        random_formula(rng, names, depth - 1, allow_zero),
    )


def mine_valid_consequences(
    gens: Sequence[Chain],
    count: int,
    names: Sequence[str],
    rng,
    depth: int = 3,
) -> list:
    """Randomly generated pairs (premise, conclusion) that are valid
    consequences over the generators."""
    allow_zero = bool(gens and gens[0].bottom)
    out = []
    while len(out) < count:
        premise = random_formula(rng, names, depth, allow_zero)
        conclusion = random_formula(rng, names, depth, allow_zero)
        if consequence(premise, conclusion, gens).holds:
            out.append((premise, conclusion))
    return out
