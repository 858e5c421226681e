"""One evaluator for every exhaustive identity check (README: "How checks
are evaluated").  Grids below CROSSOVER points run as generated nested loops
with early exit, larger ones as numpy slabs of about SLAB_POINTS points,
made one at a time in order, each subexpression computed once; both return
the lexicographically first failing tuple.  A grid of four or more
variables that fits in one slab runs the loop over its head, the points
whose first two variables are 0, before the slab.  A third generated
evaluator, the probe, decides one instance on a partially filled table.
"""

from __future__ import annotations

import ast
import copy
import math
import operator
import textwrap
from collections import Counter
from functools import cache, cached_property
from itertools import product

import numpy as np

from .result import PASS, CheckResult

#: Grid size from which a slab, after the head of four or more variables,
#: beats the early-exit loop (README).
CROSSOVER = 400

#: Most points in one slab, unless the last variable alone spans more;
#: bounds the memory of every temporary.
SLAB_POINTS = 16384

#: What a probe returns for an instance that holds or fails; any other
#: result is the index of the unset cell it is blocked on.
HOLDS = -1
FAILS = -2


class Arrays:
    """Base of the package's tables, maps and bijections, each held in
    read-only int32 arrays, the attributes `_arrays` names.  `_of` makes
    one, unchecked, from the arrays `_arrays` names, in that order, that a
    builder made valid; it freezes them.  Equality and hashing are by
    content, and pickling and copying rebuild through `_of`."""

    __slots__ = ()
    _arrays: tuple[str, ...]

    @classmethod
    def _of(cls, *arrays: np.ndarray):
        obj = cls.__new__(cls)
        obj._bind(*arrays)
        return obj

    def _bind(self, *arrays: np.ndarray) -> None:
        """Freeze each array and store it under its name in `_arrays`."""
        for name, array in zip(self._arrays, arrays):
            array.setflags(write=False)
            setattr(self, name, array)

    def __reduce__(self):
        return self._of, tuple(getattr(self, a) for a in self._arrays)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(np.array_equal(getattr(self, a), getattr(other, a)) for a in self._arrays)

    def __hash__(self) -> int:
        return hash(tuple(getattr(self, a).tobytes() for a in self._arrays))

    def __repr__(self) -> str:
        fields = ", ".join(f"{a}={getattr(self, a).tolist()}" for a in self._arrays)
        return f"{type(self).__name__}({fields})"


def integer(x) -> int:
    """x as an int if it is an integer (Python's or numpy's, bools too), where
    int(x) would truncate a float or parse a string: ValueError otherwise."""
    try:
        return int(x) if isinstance(x, np.bool_) else operator.index(x)
    except TypeError:
        raise ValueError(f"expected an integer, got {x!r}") from None


def in_range(values, n: int) -> tuple[int, ...] | None:
    """The entries as ints if each is an integer (as `integer` reads it) in
    0..n-1, in C-level passes that look up only the distinct values in
    range(n); else None, and the caller's loop names the first offender."""
    try:
        entries = tuple(map(operator.index, values))
    except TypeError:
        return None
    return entries if set(entries).issubset(range(n)) else None


def require_shape(value, depth: int, inner: str, name: str) -> None:
    """ValueError naming the first part of `value`, which should be `depth`
    lists deep around `inner` ("integers" or "pairs"), that is not a list,
    or an entry that should be a pair and is not."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{name} must be a list of {inner if depth == 1 else 'lists'}, got {value!r}")
    for i, item in enumerate(value):
        if depth > 1:
            require_shape(item, depth - 1, inner, f"{name}[{i}]")
        elif inner == "pairs" and not (isinstance(item, (list, tuple)) and len(item) == 2):
            raise ValueError(f"{name}[{i}] must be a pair of integers, got {item!r}")


class _FlatLookups(ast.NodeTransformer):
    """Rewrite `T(x1, ..., xk)` as `T[(x1*n + x2)*n + ... + xk]`.  An
    argument that reads a name in `data` is taken out of that sum as a term
    `xj * n**(k - j)` of its own, and such terms come first, in argument
    order: with `data` = {"x"}, `T(x, c, d)` becomes
    `T[x * n ** 2 + (c * n + d)]`, so `c * n + d` can be hoisted whole."""

    def __init__(self, data: frozenset[str] = frozenset()):
        self.data = data

    def visit_Call(self, node: ast.Call) -> ast.Subscript:
        self.generic_visit(node)
        n, k = ast.Name("n"), len(node.args)
        terms, rest = [], None
        for j, arg in enumerate(node.args, 1):
            if rest is not None:
                rest = ast.BinOp(rest, ast.Mult(), n)
            if not _names(arg) & self.data:
                rest = arg if rest is None else ast.BinOp(rest, ast.Add(), arg)
            elif j < k:
                weight = n if j == k - 1 else ast.BinOp(n, ast.Pow(), ast.Constant(k - j))
                terms.append(ast.BinOp(arg, ast.Mult(), weight))
            else:
                terms.append(arg)
        index, *more = terms if rest is None else [*terms, rest]
        for term in more:
            index = ast.BinOp(index, ast.Add(), term)
        return ast.Subscript(node.func, index)


def _names(node: ast.AST) -> set[str]:
    return {x.id for x in ast.walk(node) if isinstance(x, ast.Name)}


def _level(node: ast.AST, level: dict) -> int:
    """The loop that binds the last of the names `node` reads (0: none)."""
    return max((level.get(x, 0) for x in _names(node)), default=0)


def _hoist(node: ast.AST, at: int, level: dict, placed: list, temps: dict) -> ast.AST:
    """`node`, evaluated in loop `at`, with each largest subexpression that
    reads nothing bound there computed once, as a temporary, in the loop
    that binds the last name it reads: `(lam*n + u)*n` goes to the loop
    over u, not the one over w.  `temps` shares equal subexpressions."""
    home = _level(node, level)
    if home < at and isinstance(node, ast.expr) and not isinstance(node, (ast.Name, ast.Constant)):
        code = ast.unparse(node)
        if code not in temps:
            value = ast.unparse(_hoist(node, home, level, placed, temps))
            temps[code] = f"_h{len(temps)}"
            placed[home].append(f"{temps[code]} = {value}")
        return ast.Name(temps[code])
    node = copy.copy(node)
    for name, value in ast.iter_fields(node):
        if isinstance(value, ast.AST):
            setattr(node, name, _hoist(value, at, level, placed, temps))
        elif isinstance(value, list):
            setattr(node, name, [_hoist(v, at, level, placed, temps) if isinstance(v, ast.AST) else v
                                 for v in value])
    return node


def _reads_pair(step: ast.Assign) -> bool:
    """Whether `step` is `a, b = T[i]`, a lookup into a table of pairs."""
    return isinstance(step.targets[0], ast.Tuple) and isinstance(step.value, ast.Subscript)


def _take(table: ast.expr, index: ast.expr, axis: int | None) -> ast.Call:
    keywords = [] if axis is None else [ast.keyword("axis", ast.Constant(axis))]
    return ast.Call(ast.Attribute(table, "take", ast.Load()), [index], keywords)


class _Gathers(_FlatLookups):
    """Rewrite every lookup as a numpy gather for slabs.  `T[i]` and
    `T(x1, ..., xk)` become `T.take(i)` at the flat index; `take` skips the
    set-up of fancy indexing (21 us against 63 us for 21,952 entries on a
    2-core x86-64 VM).  When xk is the slab's `last` variable, which ranges
    over n, and x1..x(k-1) do not depend on it (`level`, through nested
    lookups and assigned names), the lookup reads whole rows instead:
    `_rows_T.take(_row(j), axis=0)`, with j = (x1*n + ...)*n + x(k-1) and
    `_rows_T` the table as rows of n, so the index is n times smaller and
    no index spans the last variable.  A table of pairs, named in `pairs`,
    is gathered along axis 1 of its (2, N) or (2, N/n, n) form, so each
    index is converted once for both rows."""

    def __init__(self, last: str | None, level: dict, pairs: set[str]):
        super().__init__()
        self.last, self.level, self.pairs = last, level, pairs
        self.rows = set()

    def visit_Call(self, node: ast.Call) -> ast.Call:
        *lead, last = node.args
        pair = node.func.id in self.pairs
        if (lead and isinstance(last, ast.Name) and last.id == self.last
                and _level(ast.Tuple(lead), self.level) < self.level[self.last]):
            self.rows.add(node.func.id)
            row = super().visit_Call(ast.Call(node.func, lead, [])).slice
            return _take(ast.Name(f"_rows_{node.func.id}"), ast.Call(ast.Name("_row"), [row], []), int(pair))
        flat = super().visit_Call(node)
        return _take(flat.value, flat.slice, 1 if pair else None)

    def visit_Subscript(self, node: ast.Subscript) -> ast.Call:
        self.generic_visit(node)
        return _take(node.value, node.slice, 1 if node.value.id in self.pairs else None)


def _row(i):
    """A row index, which does not read the slab's last variable: an array
    loses its last axis, of length 1, and the gathered rows take its place."""
    return i[..., 0] if type(i) is np.ndarray else i


def _sides(equation: ast.Expr) -> list[tuple[ast.expr, ast.expr]]:
    """The (lhs, rhs) components of `lhs == rhs`, whose sides may be tuples."""
    sides = (equation.value.left, equation.value.comparators[0])
    lhs, rhs = (s.elts if isinstance(s, ast.Tuple) else [s] for s in sides)
    return list(zip(lhs, rhs, strict=True))


class _Share(ast.NodeTransformer):
    """Compute each arithmetic or call that a slab's `body` evaluates more
    than once, once: `visit` returns a statement with every such
    subexpression read as a temporary `_sK`, after adding to `lines` the
    assignment of each temporary it reads first, inner ones first.  Equal
    code is equal value, as in `_hoist`."""

    def __init__(self, body: list[ast.stmt]):
        self.counts = Counter()
        for s in body:
            self._count(s)
        self.names = {}
        self.lines = []

    def _count(self, node: ast.AST) -> None:
        """Count the evaluations, not reading inside a repeated one again."""
        if isinstance(node, (ast.BinOp, ast.Call)):
            code = ast.unparse(node)
            self.counts[code] += 1
            if self.counts[code] > 1:
                return
        for child in ast.iter_child_nodes(node):
            self._count(child)

    def _shared(self, node: ast.expr) -> ast.expr:
        code = ast.unparse(node)
        if code not in self.names:
            node = self.generic_visit(node)
            if self.counts[code] == 1:
                return node
            self.names[code] = f"_s{len(self.names)}"
            self.lines.append(f"{self.names[code]} = {ast.unparse(node)}")
        return ast.Name(self.names[code])

    visit_BinOp = visit_Call = _shared


class _HoistLookups(ast.NodeTransformer):
    """Move every lookup, in evaluation order, to lines of its own that
    return the index read when that cell is unset (-1)."""

    def __init__(self):
        self.lines = []
        self.temps = 0

    def visit_Subscript(self, node: ast.Subscript) -> ast.Name:
        self.generic_visit(node)
        t = f"_t{self.temps}"
        self.temps += 1
        i = ast.unparse(node.slice)
        if not isinstance(node.slice, ast.Name):
            self.lines.append(f"_i = {i}")
            i = "_i"
        self.lines += [f"{t} = {ast.unparse(node.value)}[{i}]", f"if {t} < 0: return {i}"]
        return ast.Name(t)


class Identity:
    """`body` holds for every value of the space-separated `variables`.

    `body` is assignments ending in `lhs == rhs`, whose sides may be tuples
    compared componentwise.  A table is read in row-major order, whatever
    its shape: `T(x, y, z)` reads T's entry `(x*n + y)*n + z`, and a table
    with another stride is subscripted explicitly at its flat index, so an
    (n, n, n) array, its flat view and a flat sequence are read alike.
    `a, b = T(...)` unpacks an entry of a table of pairs, which is given as
    its two rows: an array whose first axis has length 2, as a map holds
    its pairs, or two flat sequences.  A variable `x` ranges over 0..n-1
    and `x:h` over 0..h-1, where h is a name supplied with the tables or a
    number read literally.
    """

    def __init__(self, variables: str, body: str):
        specs = [v.partition(":") for v in variables.split()]
        self.variables = tuple(name for name, _, _ in specs)
        self.sizes = tuple(int(size) if size.isdigit() else size or "n" for _, _, size in specs)
        self.body = body

    @cached_property
    def _compiled(self):
        """(params, tables, scan, slab_of): the names to supply, those of them
        that are tables, the loop, and the function of the tables that makes
        the slab of the variables."""
        tree = _FlatLookups().visit(ast.parse(textwrap.dedent(self.body)))
        *steps, equation = tree.body
        pairs = _sides(equation)
        assigned = set().union(*(_names(s.targets[0]) for s in steps))
        params = sorted(_names(tree) - assigned - set(self.variables) | {"n"})
        src = ast.unparse

        # Loop i + 1 binds variable i; each assignment goes in the loop that
        # binds the last of the names it reads, and so does each partial
        # index or lookup within it (_hoist).
        k = len(self.variables)
        level = {v: i + 1 for i, v in enumerate(self.variables)}
        placed = [[] for _ in range(k + 1)]
        temps = {}
        for s in steps:
            at = _level(s.value, level)
            value = _hoist(s.value, at, level, placed, temps)
            level.update(dict.fromkeys(_names(s.targets[0]), at))
            placed[at].append(f"{src(s.targets[0])} = {src(value)}")
        pairs_scan = [(src(_hoist(a, k, level, placed, temps)), src(_hoist(b, k, level, placed, temps)))
                      for a, b in pairs]
        # The loop reads an array as its flat list, and a table of pairs as a
        # list of pairs, each made once per check; slabs read tables as flat
        # int32 arrays, a table of pairs as two rows.
        tables = {x.value.id for x in ast.walk(tree) if isinstance(x, ast.Subscript)}
        paired = {src(s.value.value) for s in steps if _reads_pair(s)}
        flat = {t: "2, -1" if t in paired else "-1" for t in tables}
        lines = ["def scan(_env, _head=False):"]
        for p in params:
            line = f"    {p} = _env[{p!r}]"
            if p in tables:
                rows = f"({p}.reshape({flat[p]}).tolist() if type({p}) is ndarray else {p})"
                line += f"; {p} = {f'list(zip(*{rows}))' if p in paired else rows}"
            lines.append(line)
        lines += [f"    _r{i} = range({s if type(s) is int else f'_env[{s!r}]'})"
                  for i, s in enumerate(self.sizes)]
        # the head: the points with the first two variables at 0
        lines.append("    if _head: " + "; ".join(f"_r{i} = _r{i}[:1]" for i in range(min(k, 2))))
        lines += ["    " + s for s in placed[0]]
        for i, v in enumerate(self.variables, 1):
            lines += [f"{'    ' * i}for {v} in _r{i - 1}:", *("    " * (i + 1) + s for s in placed[i])]
        pad = "    " * (k + 1)
        lines += [
            pad + "if " + " or ".join(f"{a} != {b}" for a, b in pairs_scan) + ":",
            f"{pad}    return ({', '.join(self.variables)},)",
            "    return None",
        ]

        # slab_of(tables) runs once per check: it reads each table as flat int32,
        # views each table whose rows are gathered (_Gathers) as rows of n,
        # and returns the slab, a function of the variables.
        gathers = _Gathers(self.variables[-1] if self.sizes[-1] == "n" else None, level, paired)
        *steps, equation = [gathers.visit(s) for s in ast.parse(textwrap.dedent(self.body)).body]
        test = " | ".join(f"({src(a)} != {src(b)})" for a, b in _sides(equation))
        steps.append(ast.parse(f"return {test}").body[0])
        share = _Share(steps)
        for s in steps:
            share.lines.append(src(share.visit(s)))
        lines += [
            f"def slab_of({', '.join(params)}):",
            *(f"    {t} = asarray({t}, int32).reshape({flat[t]})" for t in sorted(tables)),
            *(f"    _rows_{t} = {t}.reshape({flat[t]}, n)" for t in sorted(gathers.rows)),
            f"    def slab({', '.join(self.variables)}):",
            *("        " + line for line in share.lines),
            "    return slab",
        ]
        namespace = {"ndarray": np.ndarray, "asarray": np.asarray, "int32": np.int32, "_row": _row}
        exec("\n".join(lines), namespace)
        return params, tables, namespace["scan"], namespace["slab_of"]

    @cached_property
    def _probe(self):
        """probe(env): the function of the variables that makes the probe of
        one instance on the tables of `env`, read as they are at each call.

        Level 0 reads `env`, level 1 makes an instance and level 2 is its
        probe.  The tables, and what is computed from them, are read at
        level 2; every partial index that reads only sizes is computed at
        level 0, and every one that reads only the point and sizes at
        level 1 (`_hoist`), so a lookup whose arguments are all variables
        reads a constant index."""
        tree = ast.parse(textwrap.dedent(self.body))
        for s in tree.body[:-1]:
            if isinstance(s.targets[0], ast.Tuple):
                raise ValueError(f"cannot probe `{ast.unparse(s)}` in {self.body.strip()!r}: "
                                 "probes read tables of single values, not pairs")
        params, tables = self._compiled[:2]
        level = dict.fromkeys(_names(tree), 2)
        level.update({p: 0 for p in params if p not in tables})
        level.update(dict.fromkeys(self.variables, 1))
        *steps, equation = _FlatLookups(frozenset(x for x in level if level[x] == 2)).visit(tree).body
        placed, temps, hoist = [[], []], {}, _HoistLookups()
        for s in steps:
            value = hoist.visit(_hoist(s.value, 2, level, placed, temps))
            hoist.lines.append(f"{ast.unparse(s.targets[0])} = {ast.unparse(value)}")
        test = ast.unparse(hoist.visit(_hoist(equation.value, 2, level, placed, temps)))
        lines = [
            "def probe(_env):",
            *(f"    {p} = _env[{p!r}]" for p in params),
            *("    " + line for line in placed[0]),
            f"    def instance({', '.join(self.variables)}):",
            *("        " + line for line in placed[1]),
            "        def at():",
            *("            " + line for line in hoist.lines),
            f"            return {HOLDS} if {test} else {FAILS}",
            "        return at",
            "    return instance",
        ]
        namespace = {}
        exec("\n".join(lines), namespace)
        return namespace["probe"]


def check(ident: Identity, label: str | None = None, **env) -> CheckResult:
    """Evaluate `ident` exhaustively; a failure carries the first witness and
    `label`.  `env` supplies every table (an int32 array of any shape, read
    in row-major order, or a flat sequence), size and constant the
    declaration names, `n` included."""
    witness = _first_failure(ident, env)
    return PASS if witness is None else CheckResult(False, witness, label)


def check_stack(ident: Identity, stacked: tuple[str, ...], count: int, **env) -> np.ndarray:
    """Whether `ident` holds on each of `count` sets of tables: a bool array
    of that length.  Each table named in `stacked` is supplied as a stack of
    `count` tables, each of n^k entries where k is its lookups' arity (a
    table of pairs as its two rows, each such a stack); the rest of `env`
    is shared, as `check` takes it."""
    ident = _stacked(ident, stacked)
    env["T"] = count
    params, _, _, slab_of = ident._compiled
    slab = slab_of(*(env[p] for p in params))
    sizes = tuple(_sizes(ident, env))
    fixed, step = _cut(sizes)
    axes = _axes(sizes[fixed:])
    fails = np.zeros(count, bool)
    for point in product(*map(range, sizes[:fixed])):
        for start in range(0, sizes[fixed], step):
            bad = slab(*point, axes[0][start : start + step], *axes[1:])
            if fixed:
                fails[point[0]] |= bad.any()
            else:
                # bad may lack leading axes or have size-1 ones, as in _slab_first
                bad = bad.reshape((1,) * (len(sizes) - bad.ndim) + bad.shape)
                fails[start : start + step] |= bad.any(axis=tuple(range(1, bad.ndim)))
    return ~fails


class _Stacked(ast.NodeTransformer):
    """Prepend the variable `t` to every lookup of the tables in `names`."""

    def __init__(self, names: tuple[str, ...]):
        self.names = names

    def visit_Call(self, node: ast.Call) -> ast.Call:
        self.generic_visit(node)
        if node.func.id in self.names:
            node.args.insert(0, ast.Name("t"))
        return node

    def visit_Subscript(self, node: ast.Subscript) -> ast.Subscript:
        if node.value.id in self.names:
            raise ValueError(f"cannot stack `{ast.unparse(node)}`: a stacked table is read by its arguments")
        return self.generic_visit(node)


@cache
def _stacked(ident: Identity, names: tuple[str, ...]) -> Identity:
    """`ident` over a leading variable `t:T` that picks a table of each stack
    named in `names`.  Row-major order makes `T(t, x1, ..., xk)` the flat
    index into a (T, n^k) stack."""
    tree = ast.parse(textwrap.dedent(ident.body))
    if {"t", "T"} & _names(tree):
        raise ValueError(f"cannot stack {ident.body.strip()!r}: it reads t or T")
    body = ast.unparse(_Stacked(names).visit(tree))
    variables = " ".join(v if s == "n" else f"{v}:{s}" for v, s in zip(ident.variables, ident.sizes))
    return Identity(f"t:T {variables}", body)


def probe(ident: Identity, **env):
    """The function of `ident`'s variables that makes the probe of one
    instance: a function of no arguments that decides the instance on
    partially filled tables, where -1 marks an unset cell.  It reads the
    lookups in evaluation order, each after those its index depends on, and
    returns HOLDS, FAILS, or the index of the first unset cell it read.  The
    part of each index that reads only the instance's point is computed
    once, when the probe is made; the tables in `env`, held flat, are read
    anew at each call, so they may be filled in place between calls.
    Defined for tables of single values: a declaration that unpacks a pair
    is a ValueError."""
    return ident._probe(env)


def _sizes(ident: Identity, env: dict):
    """The sizes of `ident`'s variables, an iterator: a name is looked up in
    `env`, and a number, which is no key of `env`, stands for itself."""
    return map(env.get, ident.sizes, ident.sizes)


def _first_failure(ident: Identity, env: dict) -> tuple[int, ...] | None:
    size = math.prod(_sizes(ident, env))
    if size < CROSSOVER:
        return _loop_first(ident, env)
    if len(ident.variables) >= 4 and size <= SLAB_POINTS:
        # A grid of one slab runs its head, the points whose first two
        # variables are 0, as a loop first: they come first, and nearly half
        # of the failing checks fail there, before a slab is paid for.  Over
        # three variables the tables the loop converts are as large as the
        # grid (README).
        witness = _loop_first(ident, env, head=True)
        if witness is not None:
            return witness
    return _slab_first(ident, env)


def _loop_first(ident: Identity, env: dict, head: bool = False) -> tuple[int, ...] | None:
    """The loop over every point, or with `head` only those whose first two
    variables are 0."""
    return ident._compiled[2](env, head)


@cache
def _axes(sizes: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """The open grid of `sizes` as int32 axes, made once per sizes."""
    axes = tuple(a.astype(np.int32) for a in np.ogrid[tuple(slice(s) for s in sizes)])
    for a in axes:
        a.flags.writeable = False
    return axes


def _slab_first(ident: Identity, env: dict) -> tuple[int, ...] | None:
    params, _, _, slab_of = ident._compiled
    slab = slab_of(*(env[p] for p in params))
    sizes = tuple(_sizes(ident, env))
    fixed, step = _cut(sizes)
    axes = _axes(sizes[fixed:])
    for point in product(*map(range, sizes[:fixed])):
        for start in range(0, sizes[fixed], step):
            chunk = axes[0][start : start + step]
            bad = slab(*point, chunk, *axes[1:])
            if bad.any():
                # bad may lack leading axes or have size-1 ones: the first failure is at 0 on them
                shape = (1,) * (len(sizes) - fixed - bad.ndim) + bad.shape
                a, *rest = np.unravel_index(bad.argmax(), shape)
                return (*point, start + int(a), *map(int, rest))
    return None


def _cut(sizes: tuple[int, ...]) -> tuple[int, int]:
    """(fixed, step): each slab fixes the first `fixed` variables, the fewest
    that leave at most SLAB_POINTS points, and takes `step` values of the
    next; the last variable is never cut, so its rows stay whole."""
    fixed = 0
    while fixed < len(sizes) - 2 and math.prod(sizes[fixed + 1 :]) > SLAB_POINTS:
        fixed += 1
    if fixed == len(sizes) - 1:
        return fixed, sizes[fixed]
    return fixed, max(1, SLAB_POINTS // math.prod(sizes[fixed + 1 :]))
