"""One evaluator for every exhaustive identity check (README: "How checks
are evaluated").  Grids below CROSSOVER points run as generated nested loops
with early exit, larger ones as numpy slabs; both return the
lexicographically first failing tuple.  A third generated evaluator, the
probe, decides one instance on a partially filled table.
"""

from __future__ import annotations

import ast
import copy
import math
import textwrap
from functools import cache, cached_property
from itertools import chain

import numpy as np

from .result import PASS, CheckResult

#: Grid size from which numpy slabs beat the early-exit loop (README).
CROSSOVER = 1000

#: Most points in one slab, unless one value of the first variable spans
#: more; bounds the memory of every temporary.
SLAB_POINTS = 4096

#: What a probe returns for an instance that holds or fails; any other
#: result is the index of the unset cell it is blocked on.
HOLDS = -1
FAILS = -2


class FlatTable:
    """A flat table as a tuple, for the loop, and lazily as int32, for slabs
    (a table too large for int32 indices would not fit in memory as a tuple)."""

    __slots__ = ("values", "_array")

    def __init__(self, values):
        self.values = tuple(values)
        self._array = None

    @property
    def array(self) -> np.ndarray:
        if self._array is None:
            self._array = np.array(self.values, dtype=np.int32)
        return self._array


def flatten(rows) -> tuple:
    """Nested rows as one row-major tuple."""
    return tuple(chain.from_iterable(rows))


def in_range(values, n: int) -> bool:
    """A whole-table test that every value is one of 0..n-1: one C-level
    pass collects the distinct values, and only those are looked up in
    range(n).  False where it cannot vouch for a value (0.5, NaN, an
    unhashable one); callers then loop over the entries, which accepts such
    values as before or names the first offender."""
    try:
        return set(values).issubset(range(n))
    except TypeError:
        return False


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


class _Takes(ast.NodeTransformer):
    """Rewrite every lookup `T[i]` as `T.take(i)`.  Both convert an int32
    index to intp, but `take` skips the set-up of fancy indexing: 21 us
    against 63 us for 21,952 entries on a 2-core x86-64 VM."""

    def visit_Subscript(self, node: ast.Subscript) -> ast.Call:
        self.generic_visit(node)
        return ast.Call(ast.Attribute(node.value, "take", ast.Load()), [node.slice], [])


def _taken(node: ast.AST) -> str:
    """The source of `node` with every lookup a `take`."""
    return ast.unparse(_Takes().visit(copy.deepcopy(node)))


def _slab_step(step: ast.Assign) -> str:
    """A step of a slab, where `a, b = T[i]` reads the two rows of a (2, N)
    table of pairs."""
    if _reads_pair(step):
        t, i = ast.unparse(step.value.value), _taken(step.value.slice)
        return f"_i = {i}; {ast.unparse(step.targets[0])} = {t}[0].take(_i), {t}[1].take(_i)"
    return _taken(step)


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
    compared componentwise; `T(x, y, z)` reads the flat row-major table T at
    `(x*n + y)*n + z`, and a table with another stride is subscripted
    explicitly.  `a, b = T(...)` unpacks an entry of a table of pairs, which
    is given as its two rows: a (2, N) array or two flat sequences.  A
    variable `x` ranges over 0..n-1 and `x:h` over 0..h-1.
    """

    def __init__(self, variables: str, body: str):
        specs = [v.partition(":") for v in variables.split()]
        self.variables = tuple(name for name, _, _ in specs)
        self.sizes = tuple(size or "n" for _, _, size in specs)
        self.body = body

    @cached_property
    def _compiled(self):
        """(params, scan, slab): the names to supply and the two evaluators."""
        tree = _FlatLookups().visit(ast.parse(textwrap.dedent(self.body)))
        *steps, equation = tree.body
        sides = (equation.value.left, equation.value.comparators[0])
        lhs, rhs = (s.elts if isinstance(s, ast.Tuple) else [s] for s in sides)
        pairs = list(zip(lhs, rhs, strict=True))
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
        # The loop reads a FlatTable's tuple, an array's list and a table of
        # pairs as a list of pairs, each made once per check.
        paired = {src(s.value.value) for s in steps if _reads_pair(s)}
        lines = ["def scan(_env):"]
        for p in params:
            rows = f"({p}.values if type({p}) is FlatTable else {p}.tolist() if type({p}) is ndarray else {p})"
            lines.append(f"    {p} = _env[{p!r}]; {p} = {f'list(zip(*{rows}))' if p in paired else rows}")
        lines += [f"    _r{i} = range(_env[{s!r}])" for i, s in enumerate(self.sizes)]
        lines += ["    " + s for s in placed[0]]
        for i, v in enumerate(self.variables, 1):
            lines += [f"{'    ' * i}for {v} in _r{i - 1}:", *("    " * (i + 1) + s for s in placed[i])]
        pad = "    " * (k + 1)
        lines += [
            pad + "if " + " or ".join(f"{a} != {b}" for a, b in pairs_scan) + ":",
            f"{pad}    return ({', '.join(self.variables)},)",
            "    return None",
            f"def slab({', '.join([*self.variables, *params])}):",
            *("    " + _slab_step(s) for s in steps),
            "    return " + " | ".join(f"({_taken(a)} != {_taken(b)})" for a, b in pairs),
        ]
        namespace = {"FlatTable": FlatTable, "ndarray": np.ndarray}
        exec("\n".join(lines), namespace)
        return params, namespace["scan"], namespace["slab"]

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
        params = self._compiled[0]
        tables = {x.func.id for x in ast.walk(tree) if isinstance(x, ast.Call)}
        tables |= {x.value.id for x in ast.walk(tree) if isinstance(x, ast.Subscript)}
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
    `label`.  `env` supplies every table (a FlatTable, a flat tuple or an
    int32 array), size and constant the declaration names, `n` included."""
    witness = _first_failure(ident, env)
    return PASS if witness is None else CheckResult(False, witness, label)


def probe(ident: Identity, **env):
    """The function of `ident`'s variables that makes the probe of one
    instance: a function of no arguments that decides the instance on
    partially filled tables, where -1 marks an unset cell.  It reads the
    lookups in evaluation order, each after those its index depends on, and
    returns HOLDS, FAILS, or the index of the first unset cell it read.  The
    part of each index that reads only the instance's point is computed
    once, when the probe is made; the tables in `env` are read anew at each
    call, so they may be filled in place between calls.  Defined for tables
    of single values: a declaration that unpacks a pair is a ValueError."""
    return ident._probe(env)


def _first_failure(ident: Identity, env: dict) -> tuple[int, ...] | None:
    if math.prod(map(env.__getitem__, ident.sizes)) < CROSSOVER:
        return _loop_first(ident, env)
    return _slab_first(ident, env)


def _loop_first(ident: Identity, env: dict) -> tuple[int, ...] | None:
    return ident._compiled[1](env)


@cache
def _axes(sizes: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """The open grid of `sizes` as int32 axes, made once per sizes."""
    axes = tuple(a.astype(np.int32) for a in np.ogrid[tuple(slice(s) for s in sizes)])
    for a in axes:
        a.flags.writeable = False
    return axes


def _slab_table(x):
    """A table as slabs read it: arrays as they are, sequences as int32."""
    if type(x) is FlatTable:
        return x.array
    if isinstance(x, (tuple, list)):
        return np.array(x, dtype=np.int32)
    return x


def _slab_first(ident: Identity, env: dict) -> tuple[int, ...] | None:
    params, _, slab = ident._compiled
    arrays = {p: _slab_table(env[p]) for p in params}
    sizes = tuple(env[s] for s in ident.sizes)
    axes = _axes(sizes)
    step = max(1, SLAB_POINTS // math.prod(sizes[1:]))
    for start in range(0, sizes[0], step):
        first = axes[0][start : start + step]
        shape = (len(first), *sizes[1:])
        bad = np.flatnonzero(np.broadcast_to(slab(first, *axes[1:], **arrays), shape))
        if bad.size:
            a, *rest = np.unravel_index(bad[0], shape)
            return (start + int(a), *map(int, rest))
    return None
