"""Tiny arithmetic expression language for problem objectives.

Expressions are written over ``y[i]`` (leader variables) and ``x[j]``
(follower variables) with ``+ - * / ^`` and parentheses, e.g. ::

    (1 + 4*y[0]*(1 - y[0])) * (1 + x[0] + x[1])

The parser produces a small AST that supports numeric evaluation
(vectorized over batches of x), symbolic differentiation with respect
to the x variables, and a conservative polynomial-degree analysis used
to classify fields as linear or quadratic in x.
"""

import numpy as np

# AST nodes are tuples: ("const", v), ("y", i), ("x", j),
# ("add", a, b), ("sub", a, b), ("mul", a, b), ("div", a, b),
# ("neg", a), ("pow", a, k) with k a nonnegative integer.


class ExpressionError(ValueError):
    """Raised for syntax errors or unsupported constructs."""


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*/^()[]":
            tokens.append(ch)
            i += 1
        elif ch.isdigit() or ch == ".":
            j = i
            while j < n and (text[j].isdigit() or text[j] in ".eE" or
                             (text[j] in "+-" and text[j - 1] in "eE")):
                j += 1
            try:
                tokens.append(("num", float(text[i:j])))
            except ValueError:
                raise ExpressionError(f"bad number literal {text[i:j]!r}")
            i = j
        elif ch in "xy":
            tokens.append(("var", ch))
            i += 1
        else:
            raise ExpressionError(f"unexpected character {ch!r} at position {i}")
    return tokens


MAX_DEPTH = 300  # nesting levels; each recursive pass takes about one frame per level


class _Parser:
    """Recursive descent that recurses only into parentheses (two frames a
    level) and exponents (one frame); sums, products and signs are loops.
    The grammar is

        expr   := term (('+' | '-') term)*
        term   := factor (('*' | '/') factor)*
        factor := ('+' | '-')* atom ('^' factor)?
        atom   := number | x[int] | y[int] | '(' expr ')'

    with left-associative operators and '^' binding tighter than a sign.
    """

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.level = 0  # open parentheses and exponents

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ExpressionError("unexpected end of expression")
        self.pos += 1
        return tok

    def expect(self, tok):
        got = self.next()
        if got != tok:
            raise ExpressionError(f"expected {tok!r}, got {got!r}")

    def parse_expr(self):
        node, op = None, None
        while True:
            term = self.parse_factor()
            while self.peek() in ("*", "/"):
                term = ("mul" if self.next() == "*" else "div", term, self.parse_factor())
            node = term if op is None else (op, node, term)
            if self.peek() not in ("+", "-"):
                return node
            op = "add" if self.next() == "+" else "sub"

    def parse_factor(self):
        signs = []
        while self.peek() in ("+", "-"):
            signs.append(self.next())
        tok = self.next()
        if tok == "(":
            self.enter()
            node = self.parse_expr()
            self.level -= 1
            self.expect(")")
        else:
            node = self.parse_leaf(tok)
        if self.peek() == "^":
            self.next()
            self.enter()
            k = _const_value(self.parse_factor())
            self.level -= 1
            if k is None or not k.is_integer() or k < 0:
                raise ExpressionError("exponent must be a nonnegative integer constant")
            node = ("pow", node, int(k))
        for sign in reversed(signs):
            if sign == "-":
                node = ("neg", node)
        return node

    def parse_leaf(self, tok):
        if isinstance(tok, tuple) and tok[0] == "num":
            return ("const", tok[1])
        if isinstance(tok, tuple) and tok[0] == "var":
            name = tok[1]
            self.expect("[")
            idx = self.next()
            if not (isinstance(idx, tuple) and idx[0] == "num" and idx[1].is_integer()):
                raise ExpressionError(f"{name}[...] index must be an integer")
            self.expect("]")
            return (name, int(idx[1]))
        raise ExpressionError(f"unexpected token {tok!r}")

    def enter(self):
        self.level += 1
        if self.level > MAX_DEPTH:
            raise ExpressionError(f"expression nests deeper than {MAX_DEPTH} levels")


def _const_value(node):
    sign = 1.0
    while node[0] == "neg":
        sign, node = -sign, node[1]
    return sign * node[1] if node[0] == "const" else None


def _walk(node):
    """Yield (node, level) for every node of an AST, without recursion:
    a parent before its children, children left to right (text order)."""
    stack = [(node, 1)]
    while stack:
        node, d = stack.pop()
        yield node, d
        for child in node[:0:-1]:  # pushed right to left, so popped left to right
            if isinstance(child, tuple):
                stack.append((child, d + 1))


def depth(node):
    """Levels of an AST."""
    return max(d for _, d in _walk(node))


def _bounded(node, what):
    if depth(node) > MAX_DEPTH:
        raise ExpressionError(f"{what} nests deeper than {MAX_DEPTH} levels")
    return node


def parse(text):
    """Parse an expression string into an AST of at most MAX_DEPTH levels."""
    parser = _Parser(_tokenize(text))
    node = parser.parse_expr()
    if parser.peek() is not None:
        raise ExpressionError(f"trailing input at token {parser.peek()!r}")
    return _bounded(node, "expression")


def check_indices(node, dim_y, dim_x):
    """Verify every y[i]/x[j] index is within the declared arities; the
    error names the first one out of range in text order."""
    dims = {"y": dim_y, "x": dim_x}
    for n, _ in _walk(node):
        dim = dims.get(n[0])
        if dim is not None and not 0 <= n[1] < dim:
            raise ExpressionError(f"{n[0]}[{n[1]}] out of range for dim_{n[0]}={dim}")


def uses_y(node):
    """Whether the expression reads any leader variable y[i]."""
    return any(n[0] == "y" for n, _ in _walk(node))


def compile_evaluator(node):
    """Compile the AST to a closure ``fn(y, x) -> value``.

    ``x`` may be a single point of shape (n,) or a batch of shape (N, n);
    the result broadcasts accordingly.
    """
    kind = node[0]
    if kind == "const":
        v = np.float64(node[1])  # so constants divide and overflow like y and x do
        return lambda y, x: v
    if kind == "y":
        i = node[1]
        return lambda y, x: y[i]
    if kind == "x":
        j = node[1]
        return lambda y, x: x[..., j]
    if kind == "add":
        fa, fb = compile_evaluator(node[1]), compile_evaluator(node[2])
        return lambda y, x: fa(y, x) + fb(y, x)
    if kind == "sub":
        fa, fb = compile_evaluator(node[1]), compile_evaluator(node[2])
        return lambda y, x: fa(y, x) - fb(y, x)
    if kind == "mul":
        fa, fb = compile_evaluator(node[1]), compile_evaluator(node[2])
        return lambda y, x: fa(y, x) * fb(y, x)
    if kind == "div":
        fa, fb = compile_evaluator(node[1]), compile_evaluator(node[2])
        return lambda y, x: fa(y, x) / fb(y, x)
    if kind == "neg":
        fa = compile_evaluator(node[1])
        return lambda y, x: -fa(y, x)
    if kind == "pow":
        fa, k = compile_evaluator(node[1]), node[2]
        return lambda y, x: fa(y, x) ** k
    raise ExpressionError(f"unknown node {kind!r}")


# -- symbolic differentiation -------------------------------------------

_ZERO = ("const", 0.0)
_ONE = ("const", 1.0)


def _add(a, b):
    if a == _ZERO:
        return b
    if b == _ZERO:
        return a
    if a[0] == "const" and b[0] == "const":
        return ("const", a[1] + b[1])
    return ("add", a, b)


def _sub(a, b):
    if b == _ZERO:
        return a
    if a[0] == "const" and b[0] == "const":
        return ("const", a[1] - b[1])
    return ("sub", a, b)


def _mul(a, b):
    if a == _ZERO or b == _ZERO:
        return _ZERO
    if a == _ONE:
        return b
    if b == _ONE:
        return a
    if a[0] == "const" and b[0] == "const":
        return ("const", a[1] * b[1])
    return ("mul", a, b)


def diff_x(node, j):
    """Symbolic partial derivative with respect to x[j]. A derivative can
    nest up to three levels per level of node; one that nests deeper than
    MAX_DEPTH is an ExpressionError."""
    return _bounded(_diff(node, j), f"derivative in x[{j}]")


def _diff(node, j):
    kind = node[0]
    if kind in ("const", "y"):
        return _ZERO
    if kind == "x":
        return _ONE if node[1] == j else _ZERO
    if kind == "add":
        return _add(_diff(node[1], j), _diff(node[2], j))
    if kind == "sub":
        return _sub(_diff(node[1], j), _diff(node[2], j))
    if kind == "mul":
        a, b = node[1], node[2]
        return _add(_mul(_diff(a, j), b), _mul(a, _diff(b, j)))
    if kind == "div":
        a, b = node[1], node[2]
        num = _sub(_mul(_diff(a, j), b), _mul(a, _diff(b, j)))
        return ("div", num, ("pow", b, 2))
    if kind == "neg":
        return ("neg", _diff(node[1], j))
    if kind == "pow":
        a, k = node[1], node[2]
        if k < 2:  # d(a^1) = 1 * a^0 * da is da to the bit: a^0 is 1 even at a NaN
            return _mul(("const", float(k)), _diff(a, j))
        return _mul(_mul(("const", float(k)), ("pow", a, k - 1)), _diff(a, j))
    raise ExpressionError(f"unknown node {kind!r}")


def degree_in_x(node):
    """Total polynomial degree in the x variables, or None if not polynomial."""
    kind = node[0]
    if kind in ("const", "y"):
        return 0
    if kind == "x":
        return 1
    if kind in ("add", "sub"):
        da, db = degree_in_x(node[1]), degree_in_x(node[2])
        return None if da is None or db is None else max(da, db)
    if kind == "mul":
        da, db = degree_in_x(node[1]), degree_in_x(node[2])
        return None if da is None or db is None else da + db
    if kind == "div":
        da, db = degree_in_x(node[1]), degree_in_x(node[2])
        if db == 0 and da is not None:
            return da
        return None
    if kind == "neg":
        return degree_in_x(node[1])
    if kind == "pow":
        da = degree_in_x(node[1])
        return None if da is None else da * node[2]
    raise ExpressionError(f"unknown node {kind!r}")
