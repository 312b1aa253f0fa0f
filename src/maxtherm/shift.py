"""Shift spaces on a finite alphabet: cylinder tables and transfer operators.

Sequences use symbols 1..d and 0-based positions, so two sequences
differing in their first symbol are at distance gamma^0 = 1 (the space has
diameter 1).  A depth-n table assigns one value per length-n word; words
are stored in base-d lexicographic order with the first symbol most
significant, which makes prepend/marginalize operations pure reshapes.

Every linear probability table, whether a cylinder measure, the columns of
a transfer kernel, a symbol distribution or a whole batch of attractor
rows, goes through ``check_probability_rows``; the max-plus counterpart is
``semiring.check_maxplus_probability``.  Every integer argument, whether
an alphabet size, depth, word length, orbit length, count or seed, goes
through ``check_count``; every finite real argument or table, whether a
rate, tilt, tolerance, function table or observable, through ``check_real``,
which reads it, as a measure reads its masses, by ``semiring.check_numbers``.

The memory rule: a table sized by a count holds at most ``MAX_CELLS``
cells, checked by ``check_cells``, and a streamed pass reads a table in
the ``row_blocks`` of about ``BLOCK_CELLS`` cells.

The ``*_rows`` forms act on whole tables, one row per function, kernel
or measure: ``lipschitz_rows`` and ``pushforward_rows``, and the paired
``transfer_rows``, where row i of a kernel table acts on row i of a
values table.  ``dual_rows`` is the one dual transfer product: the
(d, d^(j-1), 1) view of each kernel reading j symbols against the
(1, d^(j-1), d^(n+1-j)) view of each depth-n row of masses, their leading
axes broadcast, so paired rows or a whole family against a whole level
is one product the size of its image, with no repeated kernel table; it
alone refuses a kernel deeper than its measures + 1.
``lipschitz_constant``, ``pushforward_apply`` and ``dual_apply`` are the
one-row cases, and ``check_kernel_rows`` checks a kernel table's rows as
``Jacobian`` checks one kernel.  A function's table is a read-only copy
of the caller's values, so it keeps the bits its checks passed.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Iterator, List, Sequence

import numpy as np

from .semiring import NORMALIZATION_TOL, check_numbers

MAX_CELLS = 1 << 25   # float cells one table may hold (256 MiB of float64)
BLOCK_CELLS = 1 << 15   # cells per block of a streamed pass; a power of two >= 128
LIPSCHITZ_SLACK = 1e-9  # absorbs rounding in the Lip <= 1 admissibility check


@dataclass(frozen=True)
class ShiftSpace:
    """Full shift on d symbols with the ultrametric gamma^(first difference).

    gamma must stay below 1/(d+1) so the dual-transfer contraction rate
    r = (d+1) gamma is strictly below 1.
    """

    d: int
    gamma: float

    def __post_init__(self):
        object.__setattr__(self, "d", check_count("alphabet size d", self.d, 2))
        object.__setattr__(self, "gamma", check_real("gamma", self.gamma))
        if not (0.0 < self.gamma < 1.0 / (self.d + 1)):
            raise ValueError(f"gamma must lie in (0, 1/(d+1)) = (0, {1.0/(self.d+1)!r})")

    @property
    def contraction_rate(self) -> float:
        return (self.d + 1) * self.gamma

    def n_words(self, depth: int) -> int:
        return self.d ** depth


def word_index(word: Sequence[int], d: int) -> int:
    """Base-d code of a word of symbols 1..d, first symbol most significant."""
    idx = 0
    for s in word:
        if check_count("symbol", s, 1) > d:
            raise ValueError(f"symbol {s} outside alphabet 1..{d}")
        idx = idx * d + (s - 1)
    return idx


def symbol_table(depth: int, d: int) -> np.ndarray:
    """(d^depth, depth) array listing every word in lexicographic order."""
    depth = check_count("depth", depth)
    n = check_count("alphabet size d", d, 1) ** depth
    out = np.empty((n, depth), dtype=np.int64)
    codes = np.arange(n)
    for j in range(depth - 1, -1, -1):
        out[:, j] = codes % d + 1
        codes //= d
    return out


class DepthKFunction:
    """A function on the shift space depending on its first ``depth`` symbols."""

    def __init__(self, space: ShiftSpace, depth: int, values):
        depth = check_count("depth", depth)
        # a checked copy, frozen: every dual image broadcasts this table, so
        # no later write may move it past the checks it passed
        vals = np.reshape(check_real("table values", values), -1)
        vals.flags.writeable = False
        if vals.size != space.n_words(depth):
            raise ValueError(f"depth-{depth} table needs {space.n_words(depth)} values, "
                             f"got {vals.size}")
        self.space = space
        self.depth = depth
        self.values = vals

    def at_depth(self, depth: int) -> np.ndarray:
        """Table of this function viewed at a deeper resolution."""
        if check_count("depth", depth) < self.depth:
            raise ValueError("cannot view a table at a shallower depth")
        return np.repeat(self.values, self.space.d ** (depth - self.depth))


def lipschitz_constant(f: DepthKFunction) -> float:
    """sup over word pairs of |f(u) - f(v)| / gamma^(first difference): the
    one-row case of ``lipschitz_rows``."""
    return float(lipschitz_rows(f.space, f.depth, f.values[None])[0])


def lipschitz_rows(space: ShiftSpace, depth: int, table: np.ndarray) -> np.ndarray:
    """The Lipschitz constant of each row of a (k, d^depth) table.

    Grouped by the position of the first difference: words sharing a
    length-L prefix and differing at position L contribute
    (max - min over different-symbol values) / gamma^L.
    """
    d, g = space.d, space.gamma
    k = len(table)
    best = np.zeros(k)
    off_diagonal = ~np.eye(d, dtype=bool)
    for level in range(depth):
        blocks = table.reshape(k, d ** level, d, -1)
        hi = blocks.max(axis=3)   # per (row, prefix, symbol)
        lo = blocks.min(axis=3)
        gaps = (hi[:, :, :, None] - lo[:, :, None, :])[:, :, off_diagonal]
        np.maximum(best, gaps.max(axis=(1, 2)) / g ** level, out=best)
    return best


class Jacobian(DepthKFunction):
    """A normalized Lipschitz transfer kernel given as a finite-depth table.

    Requirements: values in [0, 1], sum over the first symbol equal to 1
    for every continuation word, and Lipschitz constant at most 1.
    """

    def __init__(self, space: ShiftSpace, depth: int, values):
        if check_count("depth", depth) < 1:
            raise ValueError("a transfer kernel must read at least one symbol")
        super().__init__(space, depth, values)
        check_kernel_rows(space, self.values[None], lipschitz_constant(self))

    @classmethod
    def _checked(cls, space: ShiftSpace, depth: int, values: np.ndarray) -> "Jacobian":
        """Wrap a fresh row that ``check_kernel_rows`` already accepted; it
        is frozen, as the constructor freezes its copy."""
        out = cls.__new__(cls)
        values.flags.writeable = False
        out.space, out.depth, out.values = space, depth, values
        return out


def check_kernel_rows(space: ShiftSpace, table: np.ndarray, lip) -> np.ndarray:
    """Check each row of a (k, d^depth) table as ``Jacobian`` checks its
    own, and return the table: every column, one continuation word, is a
    distribution of the first symbol, and ``lip``, the rows' Lipschitz
    constants, is at most 1 + LIPSCHITZ_SLACK.  The column check clips a
    copy, so the rows keep their bits."""
    d = space.d
    columns = table.reshape(len(table), d, -1).transpose(0, 2, 1).copy()
    check_probability_rows(columns.reshape(-1, d))
    worst = float(np.max(lip))
    if worst > 1.0 + LIPSCHITZ_SLACK:
        raise ValueError(f"kernel Lipschitz constant {worst!r} exceeds 1")
    return table


def make_bernoulli_jacobian(p: float, space: ShiftSpace) -> Jacobian:
    """Depth-1 kernel giving weight p to symbol 1 and 1-p to symbol 2."""
    if space.d != 2:
        raise ValueError("Bernoulli kernels are defined for d = 2")
    if not (0.0 <= float(check_numbers("p", p)) <= 1.0):
        raise ValueError("p must lie in [0, 1]")
    return Jacobian(space, 1, [p, 1.0 - p])


def check_probability_rows(table: np.ndarray) -> np.ndarray:
    """Check that each row of a 2-D table is a probability vector, then
    clip the table at 0 in place and return it.

    Every mass must be finite and at least -NORMALIZATION_TOL, and every
    row must sum to 1 within NORMALIZATION_TOL.  Only row-length
    temporaries are made: a non-finite mass makes its row sum non-finite.
    """
    gaps = np.abs(table.sum(axis=1) - 1.0)
    worst = float(gaps.max())
    if not math.isfinite(worst):
        raise ValueError("masses must be finite, not NaN or inf")
    if table.min() < -NORMALIZATION_TOL:
        raise ValueError("masses must be nonnegative, so each lies in [0, 1]")
    if worst > NORMALIZATION_TOL:
        raise ValueError(
            f"masses sum to {table[gaps.argmax()].sum()!r}, not 1: not normalized"
        )
    return np.maximum(table, 0.0, out=table)


def check_count(name: str, value, least: int = 0) -> int:
    """``value`` as an int, once it is an integer, numpy integers included
    and bools not, of at least ``least``; ``name`` heads the error."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return int(value)


def check_real(name: str, value, least: float = -math.inf):
    """``value`` as a float or a new float array, once ``check_numbers`` reads it
    and every entry is a finite real of at least ``least``: ``check_count`` for
    reals.  ``name`` heads the error, with a table's first failing entry."""
    table = check_numbers(name, value)
    lo = table.min(initial=math.inf)   # NaN when any entry is NaN
    if not (-math.inf < lo and least <= lo and table.max(initial=0.0) < math.inf):
        bad = float(table[~np.isfinite(table) | (table < least)][0])
        need = f"at least {least:g}" if math.isfinite(bad) else "a finite number"
        raise ValueError(f"{name} must be {need}, got {bad!r}")
    return float(table) if table.ndim == 0 else table


def count_text(n: int) -> str:
    """``n`` in digits, or from 2^64 on as "at least 2^k", since Python
    prints no int of over 4,300 digits."""
    return str(n) if n < 1 << 64 else f"at least 2^{n.bit_length() - 1}"


def check_cells(what: str, name: str, value: int, cells: Callable[[int], int],
                culprit: str) -> None:
    """Raise ``ValueError`` when ``what``, sized by the count ``name`` =
    ``value``, needs more than MAX_CELLS cells; ``cells`` gives the cells
    at each count and grows with it.  The message names the need and the
    largest count that fits, or ``culprit`` when not even 1 does.  The
    search gallops over 1, 2, 4, ... to the first count over the budget and
    bisects below it; past twice that count, where an absurd count could
    take seconds to size, the need is named by its cells there."""
    fits, over = 0, min(1, value)
    while cells(over) <= MAX_CELLS:
        if over == value:
            return
        fits, over = over, min(2 * over, value)
    fits += bisect.bisect_right(range(fits + 1, over), MAX_CELLS, key=cells)
    top = min(2 * over, value)
    need = cells(top)
    shown = count_text(need) if top == value or need >= 1 << 64 else f"at least {need}"
    raise ValueError(
        f"{what} needs {shown} cells, over the budget of {MAX_CELLS}; "
        + (f"use {name} <= {fits}" if fits >= 1 else
           f"{culprit} is too large, even at {name} = 1")
    )


def row_blocks(rows: int, cells: int) -> Iterator[slice]:
    """Consecutive slices of ``range(rows)``, each of at least one row and
    of about BLOCK_CELLS cells when a row holds ``cells``: the blocks of
    every streamed pass."""
    step = max(1, BLOCK_CELLS // cells)
    return (slice(lo, min(lo + step, rows)) for lo in range(0, rows, step))


class CylinderMeasure:
    """A probability specified on all words of a fixed depth."""

    def __init__(self, space: ShiftSpace, depth: int, masses):
        depth = check_count("depth", depth)
        m = check_numbers("masses", masses).reshape(-1)
        if m.size != space.n_words(depth):
            raise ValueError(
                f"depth-{depth} measure needs {space.n_words(depth)} masses, "
                f"got {m.size}"
            )
        check_probability_rows(m[None])
        self.space = space
        self.depth = depth
        self.masses = m

    @classmethod
    def _checked(cls, space: ShiftSpace, depth: int, masses: np.ndarray):
        """Wrap a row that ``check_probability_rows`` already accepted."""
        out = cls.__new__(cls)
        out.space, out.depth, out.masses = space, depth, masses
        return out

    @classmethod
    def trivial(cls, space: ShiftSpace) -> "CylinderMeasure":
        return cls(space, 0, [1.0])

    @classmethod
    def point_mass(cls, space: ShiftSpace, word: Sequence[int]) -> "CylinderMeasure":
        m = np.zeros(space.n_words(len(word)))
        m[word_index(word, space.d)] = 1.0
        return cls(space, len(word), m)

    @classmethod
    def bernoulli(cls, space: ShiftSpace, probs, depth: int) -> "CylinderMeasure":
        """Product measure of the depth-1 measure ``probs`` at every coordinate."""
        p = cls(space, 1, probs).masses
        m = np.array([1.0])
        for _ in range(check_count("depth", depth)):
            m = np.kron(m, p)
        return cls(space, depth, m)

    def mass_of(self, word: Sequence[int]) -> float:
        """Mass of the cylinder with the given prefix (any length <= depth)."""
        k = len(word)
        if k > self.depth:
            raise ValueError("prefix longer than the table depth")
        d = self.space.d
        block = self.masses.reshape(d ** k, -1)
        return float(np.add.reduce(block[word_index(word, d)]))

    def refine(self) -> "CylinderMeasure":
        """Split every cylinder uniformly over its d children."""
        return CylinderMeasure(
            self.space, self.depth + 1, np.repeat(self.masses, self.space.d) / self.space.d
        )

    def coarsen(self) -> "CylinderMeasure":
        """Marginalize out the last coordinate."""
        if self.depth == 0:
            raise ValueError("cannot coarsen a depth-0 measure")
        return CylinderMeasure(
            self.space, self.depth - 1, self.masses.reshape(-1, self.space.d).sum(axis=1)
        )

    def at_depth(self, depth: int) -> "CylinderMeasure":
        depth = check_count("depth", depth)
        out = self
        while out.depth < depth:
            out = out.refine()
        while out.depth > depth:
            out = out.coarsen()
        return out


def transfer_rows(space: ShiftSpace, kernels: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Row i of the transfer image table, x -> sum over symbols a of
    J(a.x) f(a.x), for kernel row J of a (k, d^j) table and values row f
    of a (k, d^n) table.  The image reads max(j, n) - 1 symbols.

    Viewing both rows as (d^min(j, n), -1) makes their product the one
    table, with no repeated copy; its ``pushforward_rows`` is the image.
    """
    heads = min(kernels.shape[1], values.shape[1])
    k = len(values)
    prod = kernels.reshape(k, heads, -1) * values.reshape(k, heads, -1)
    return pushforward_rows(space, prod.reshape(k, -1))


def dual_apply(J: Jacobian, mu: CylinderMeasure) -> CylinderMeasure:
    """Dual transfer image: nu[a.w] = J(a.w) mu[w], one level deeper: the
    one-row case of ``dual_rows``.

    Requires the kernel depth to be at most depth(mu) + 1, as ``dual_rows``
    checks; refine mu first when it is not, so the cost of deeper tables
    stays visible at the call site.
    """
    if mu.space != J.space:
        raise ValueError("kernel and measure live on different spaces")
    masses = dual_rows(J.space, J.values, mu.masses)
    return CylinderMeasure._checked(J.space, mu.depth + 1, masses)


def dual_rows(space: ShiftSpace, kernels: np.ndarray, masses: np.ndarray) -> np.ndarray:
    """The dual images nu[a.w] = J(a.w) mu[w] of a (..., d^j) kernel table
    and a (..., d^n) masses table, j <= n + 1, as a (..., d^(n+1)) table
    over their broadcast leading axes: one product of the module's views,
    checked and clipped in place by one ``check_probability_rows``."""
    d = space.d
    heads = kernels.shape[-1] // d   # d^(j-1)
    if heads > masses.shape[-1]:
        j, n = (round(math.log(t.shape[-1], d)) for t in (kernels, masses))
        raise ValueError(f"kernel depth {j} exceeds measure depth {n} + 1; "
                         "refine the measures first")
    prod = (kernels.reshape(kernels.shape[:-1] + (d, heads, 1))
            * masses.reshape(masses.shape[:-1] + (1, heads, -1)))
    check_probability_rows(prod.reshape(-1, d * masses.shape[-1]))
    return prod.reshape(prod.shape[:-3] + (-1,))


def pushforward_apply(mu: CylinderMeasure) -> CylinderMeasure:
    """Image under the shift: nu[w] = sum over symbols a of mu[a.w]."""
    if mu.depth < 1:
        raise ValueError("cannot push forward a depth-0 measure")
    out = pushforward_rows(mu.space, mu.masses[None])[0]
    return CylinderMeasure(mu.space, mu.depth - 1, out)


def pushforward_rows(space: ShiftSpace, table: np.ndarray) -> np.ndarray:
    """Row i summed over its first symbol: the shift image of each row of
    a (k, d^n) table, n >= 1, as a (k, d^(n-1)) table."""
    return table.reshape(len(table), space.d, -1).sum(axis=1)


@dataclass
class ComposeResult:
    measure: CylinderMeasure
    w1_trace: List[float]  # distance between successive composition prefixes


def compose_duals(
    js: Sequence[Jacobian], nu0: CylinderMeasure, track_trace: bool = True
) -> ComposeResult:
    """Apply the dual-transfer composition of a kernel sequence to nu0.

    js[-1] acts first and js[0] last, matching the convention that the
    leftmost kernel is outermost.  The trace holds the distance between
    consecutive prefix compositions (the deeper one marginalized down to
    the shallower depth, which is its exact marginal table).
    """
    if not js:
        raise ValueError("kernel sequence must be nonempty")
    from .transport import w1_tree  # local import to avoid a cycle

    def prefix_result(k: int) -> CylinderMeasure:
        out = nu0
        for J in reversed(js[:k]):
            out = dual_apply(J, out)
        return out

    full = prefix_result(len(js))
    trace: List[float] = []
    if track_trace:
        prev = prefix_result(1)
        for k in range(2, len(js) + 1):
            cur = prefix_result(k)
            trace.append(w1_tree(cur.at_depth(prev.depth), prev))
            prev = cur
    return ComposeResult(measure=full, w1_trace=trace)
