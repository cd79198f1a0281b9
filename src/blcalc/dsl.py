"""Text syntax for chains, class expressions, and elements.

Chains:       comp ('+' comp)*       e.g.  L2+W1+Z
Classes:      sumclass ('|' sumclass)*, sumclass '[' item+ ']',
              item = comp '*'? | '(' comp+ ')' '*'   e.g.  [W2* Z] | [L1]
Components:   W<k>, Wo<k>, Z, U, T and, leading a sum only, the
              designated-bounds forms L<k>, Lo<k>, UM.
Elements:     'top' or '<component>:<local>' with local an integer, a pair
              'a,b', or a fraction 'p/q'.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .core import (
    CANC,
    FIN,
    LEX,
    TRIV,
    UNIT,
    Chain,
    Element,
    Kind,
    TOP,
    chain,
    element,
)
from .classes import Atom, ClassExpr, Item, SumClass, class_expr


class DSLError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# Spellings of the designated-bounds components; every other component is
# spelled by its kind's tag (and parameter).
_BOUNDS_SPELLINGS = {"L": FIN, "Lo": LEX, "UM": UNIT}
_BOUNDS_TOKENS = {tag: name for name, tag in _BOUNDS_SPELLINGS.items()}
_SPELLINGS = {**{tag: tag for tag in (FIN, LEX, CANC, UNIT, TRIV)}, **_BOUNDS_SPELLINGS}

# A parameter follows exactly the spellings of W and Wo; longer spellings
# come first, so that UM is not read as U followed by M.  Any other
# character but whitespace is an unexpected one.
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<comp>"
    + "|".join(
        re.escape(name) + (r"\d+" if tag in (FIN, LEX) else "")
        for name, tag in sorted(_SPELLINGS.items(), key=lambda item: -len(item[0]))
    )
    + r")|(?P<punct>[\[\]()*|+])|(?P<bad>\S))"
)


def _tokenize(text: str, start: int, end: int):
    """(token, position) pairs of ``text[start:end]``; positions count from
    the start of ``text``."""
    tokens = []
    for m in _TOKEN_RE.finditer(text, start, end):
        token, pos = m.group(m.lastgroup), m.start(m.lastgroup)
        if m.lastgroup == "bad":
            raise DSLError(f"unexpected character {token!r}", pos)
        tokens.append((token, pos))
    return tokens


def _comp_to_atom(token: str, pos: int) -> Atom:
    if token in "[]()*|+":
        raise DSLError(f"expected a component, got {token!r}", pos)
    head = token.rstrip("0123456789")
    digits = token[len(head):]
    if digits and int(digits) < 1:
        raise DSLError("component parameter must be >= 1", pos)
    return Atom(Kind(_SPELLINGS[head], int(digits or 0)), bottom=head in _BOUNDS_SPELLINGS)


def parse_chain(text: str) -> Chain:
    """Parse an ordinal-sum chain such as ``L2+W1+Z`` or ``T``."""
    return _parse_chain(text, 0, len(text))


def parse_chain_list(text: str) -> list:
    """Parse comma-separated chains such as ``L2, W1+Z``; error positions
    count from the start of ``text``."""
    chains, start = [], 0
    for part in text.split(","):
        chains.append(_parse_chain(text, start, start + len(part)))
        start += len(part) + 1
    return chains


def _parse_chain(text: str, start: int, end: int) -> Chain:
    tokens = _tokenize(text, start, end)
    if not tokens:
        raise DSLError("empty chain", start)
    expect_comp = True
    atoms = []
    for tok, pos in tokens:
        if expect_comp:
            atoms.append((_comp_to_atom(tok, pos), pos))
            expect_comp = False
        else:
            if tok != "+":
                raise DSLError(f"expected '+', got {tok!r}", pos)
            expect_comp = True
    if expect_comp:
        raise DSLError("dangling '+'", tokens[-1][1])
    for a, pos in atoms[1:]:
        if a.bottom:
            raise DSLError("designated-bounds component after the first", pos)
    kinds = [a.kind for a, _ in atoms]
    return chain(kinds, bottom=atoms[0][0].bottom)


def parse_class_expr(text: str) -> ClassExpr:
    """Parse a bracket/star class expression such as ``[W1* Z] | [Z]``."""
    tokens = _tokenize(text, 0, len(text))
    if not tokens:
        raise DSLError("empty class expression", 0)
    i = 0

    def peek():
        return tokens[i][0] if i < len(tokens) else None

    def pos_now():
        return tokens[i][1] if i < len(tokens) else len(text)

    def take(expected=None):
        nonlocal i
        if i >= len(tokens):
            raise DSLError(f"unexpected end of input, expected {expected}", len(text))
        tok, pos = tokens[i]
        if expected is not None and tok != expected:
            raise DSLError(f"expected {expected!r}, got {tok!r}", pos)
        i += 1
        return tok, pos

    def parse_item() -> Item:
        nonlocal i
        if peek() == "(":
            take("(")
            atoms = []
            while peek() != ")":
                tok, pos = take()
                atom = _comp_to_atom(tok, pos)
                if atom.bottom:
                    raise DSLError("designated-bounds atom inside a group", pos)
                atoms.append(atom)
            take(")")
            take("*")
            if not atoms:
                raise DSLError("empty group", pos_now())
            return Item(tuple(atoms), star=True)
        tok, pos = take()
        atom = _comp_to_atom(tok, pos)
        star = False
        if peek() == "*":
            take("*")
            star = True
            if atom.bottom:
                raise DSLError("designated-bounds atom cannot be starred", pos)
        return Item((atom,), star=star)

    def parse_sum() -> SumClass:
        take("[")
        items = []
        while peek() != "]":
            if peek() is None:
                raise DSLError("unclosed '['", len(text))
            items.append(parse_item())
        take("]")
        if not items:
            raise DSLError("empty sum class", pos_now())
        for j, item in enumerate(items):
            for a in item.atoms:
                if a.bottom and j != 0:
                    raise DSLError(
                        "designated-bounds atom in non-initial position", pos_now()
                    )
        return SumClass(tuple(items))

    sums = [parse_sum()]
    while peek() == "|":
        take("|")
        sums.append(parse_sum())
    if i != len(tokens):
        raise DSLError(f"trailing input {tokens[i][0]!r}", tokens[i][1])
    try:
        return class_expr(sums)
    except ValueError as exc:
        raise DSLError(str(exc), 0) from None


def _kind_token(kind: Kind, bottom: bool) -> str:
    if not bottom or kind.tag == TRIV:
        return repr(kind)
    if kind.tag not in _BOUNDS_TOKENS:
        raise ValueError(f"{kind} cannot carry designated bounds")
    return f"{_BOUNDS_TOKENS[kind.tag]}{kind.k or ''}"


def pretty_chain(c: Chain) -> str:
    if c.is_trivial:
        return "T"
    parts = [
        _kind_token(k, bottom=(i == 0 and c.bottom))
        for i, k in enumerate(c.components)
    ]
    return "+".join(parts)


def pretty_atom(a: Atom) -> str:
    return _kind_token(a.kind, a.bottom)


def pretty_item(item: Item) -> str:
    if len(item.atoms) > 1:
        return "(" + " ".join(pretty_atom(a) for a in item.atoms) + ")*"
    return pretty_atom(item.atoms[0]) + ("*" if item.star else "")


def pretty_class_expr(e: ClassExpr) -> str:
    return "|".join(
        "[" + " ".join(pretty_item(it) for it in s.items) + "]" for s in e.sums
    )


def parse_element(c: Chain, text: str) -> Element:
    """Parse 'top' or '<ci>:<local>' against a chain."""
    text = text.strip()
    if text == "top":
        return TOP
    if ":" not in text:
        raise DSLError("element must be 'top' or '<component>:<value>'", 0)
    ci_text, val_text = text.split(":", 1)
    try:
        ci = int(ci_text)
    except ValueError:
        raise DSLError(f"bad component index {ci_text!r}", 0) from None
    val_text = val_text.strip()
    try:
        if "," in val_text:
            a, b = val_text.split(",", 1)
            value = (int(a), int(b))
        elif "/" in val_text:
            p, q = val_text.split("/", 1)
            value = Fraction(int(p), int(q))
        else:
            value = int(val_text)
    except (ValueError, ZeroDivisionError):
        raise DSLError(f"bad element value {val_text!r}", 0) from None
    return element(c, ci, value)


def pretty_element(x: Element) -> str:
    if x.is_top:
        return "top"
    if isinstance(x.value, tuple):
        return f"{x.ci}:{x.value[0]},{x.value[1]}"
    if isinstance(x.value, Fraction):
        return f"{x.ci}:{x.value.numerator}/{x.value.denominator}"
    return f"{x.ci}:{x.value}"
