"""Exact Wasserstein-1 distances between cylinder tables.

The metric gamma^(first difference) restricted to depth-n words is a tree
metric: hang the d^n words as leaves of the complete d-ary prefix tree and
give the level-j to level-(j+1) edges weight (gamma^j - gamma^(j+1))/2,
except gamma^(n-1)/2 at the leaf level.  Leaf-to-leaf path lengths then
telescope to exactly gamma^(first difference), and W1 between two leaf
distributions is the weighted sum over edges of the absolute subtree-mass
imbalance.  That closed form is the production path.

The closed form is a weighted L1 norm, so it is evaluated on many tables
at once: with A a (k, d^n) table of rows and b one reference row,

    W1(A[i], b) = sum over levels j of w_j * sum_x |A_j[i, x] - b_j[x]|,

where A_j and b_j are the subtree masses at depth j + 1 (A_j sums A over
the last n - j - 1 symbols) and w_j is the edge weight above that depth.
``tree_levels`` lays the subtree masses of a table's rows at depths n,
..., 1 side by side, once per table.  ``w1_tree_levels`` then measures
every such row against one reference row, or row i against row i of a
second such table: each level's gaps are summed along their own
contiguous segment, as a 1-D sum does, and the levels are added finest
first, so each pair keeps the bits of ``w1_tree``, its one-pair case.

A transportation LP over the word distance matrix is kept as an
independent small-instance oracle with a dual certificate.  By
Kantorovich-Rubinstein duality W1 depends only on mu - nu, so the LP moves
only the excess mass: from the words where mu > nu to the words where
nu > mu.  Its certificate still bounds the full problem.  The reduced plan
plus the common mass min(mu, nu) left in place is a coupling of mu and nu,
so the LP value is >= W1; the potential built from its duals is
1-Lipschitz, so mu(f) - nu(f) <= W1.  A small gap between the two pins W1.

The oracle takes a batch of paired rows, as ``w1_tree_levels`` does, and
solves their LPs together: the rows are packed in order into
block-diagonal LPs of at most ``LP_BLOCK_VARS`` plan variables, one block
per row, and a row whose plan is larger gets an LP of its own.  A small
LP costs scipy's wrapper a few milliseconds of input checks for under one
of HiGHS work, so one call per block would spend most of its time there.
Blocks share no variable or constraint, so each row keeps its own
certificate: its primal is its block's cost times its block's plan, and
its potential is built from its block's sink duals alone.  Each LP is
solved by dual simplex (Huangfu and Hall, Math. Prog. Comp. 2018) with
presolve off, which solved all 8,000 pairs of 40 seeds of the battery's
plan at the first try; a failed solve is retried once with presolve on.
``LP_BLOCK_VARS`` sits below ``shift.BLOCK_CELLS``, capped by HiGHS's
memory, which grows with the columns of one LP: at 2^15 variables the
peak resident memory of a packed LP is about a tenth above that of the
per-row LPs, while budgets of 2^12 to 2^14 take the same time.

Only the oracle needs scipy, so it is imported on the first LP call, not
with this module: ``linprog`` is a module attribute that loads
``scipy.optimize.linprog`` when first read, and ``_transport_constraints``
imports ``scipy.sparse`` in its body.  The oracle reads ``linprog`` from
this module, so a ``linprog`` set on the module is the one it calls.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .semiring import check_numbers
from .shift import (
    CylinderMeasure,
    ShiftSpace,
    check_count,
    check_probability_rows,
    symbol_table,
)

LP_MAX_POINTS = 1024
LP_BLOCK_VARS = 1 << 13   # plan variables per packed LP, capped by HiGHS's memory


def __getattr__(name: str):
    """Load ``linprog`` on first access and keep it in the module globals."""
    if name == "linprog":
        from scipy.optimize import linprog

        globals()["linprog"] = linprog
        return linprog
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _check_pair(mu: CylinderMeasure, nu: CylinderMeasure):
    if mu.space != nu.space:
        raise ValueError("measures live on different spaces")
    if mu.depth != nu.depth:
        raise ValueError(
            f"depth mismatch ({mu.depth} vs {nu.depth}); refine the shallower "
            "measure first"
        )


def tree_levels(table: np.ndarray, d: int) -> np.ndarray:
    """The subtree masses of each row of a (k, d^n) table at depths n,
    n - 1, ..., 1, side by side in one (k, d^n + ... + d) table whose first
    d^n columns are the rows themselves.  Each level sums the d strided
    slices of the one before in symbol order, which gives the bits of
    ``reshape(-1, d).sum(axis=1)`` without its slow length-d reduce."""
    if table.shape[1] == 1:
        return table[:, :0]   # a depth-0 table has no level
    levels = [table]
    while levels[-1].shape[1] > d:
        level = levels[-1]
        coarse = level[:, 0::d] + level[:, 1::d]
        for symbol in range(2, d):
            coarse += level[:, symbol::d]
        levels.append(coarse)
    return np.concatenate(levels, axis=1)


def w1_tree_levels(space: ShiftSpace, levels: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """W1 from each row of ``levels`` to the row ``ref``, or, when ``ref``
    is a table of the same shape, from row i to row i of ``ref`` (the
    paired W1); all are ``tree_levels`` of depth-n cylinder tables on
    ``space``.  Equal to ``w1_tree`` on each pair, bit for bit."""
    d, gamma = space.d, space.gamma
    gaps = levels - ref
    np.abs(gaps, out=gaps)   # in place: one block-sized temporary, not two
    cells = gaps.shape[1] * (d - 1) // d + 1   # d^n, the finest level
    n = round(math.log(cells, d))
    total = np.zeros(len(gaps))
    start = 0
    for j in range(n - 1, -1, -1):
        w = gamma ** (n - 1) / 2.0 if j == n - 1 else (gamma ** j - gamma ** (j + 1)) / 2.0
        total += w * gaps[:, start:start + cells].sum(axis=1)
        start += cells
        cells //= d
    return total


def w1_tree(mu: CylinderMeasure, nu: CylinderMeasure) -> float:
    """W1 between equal-depth tables via the prefix-tree closed form.

    Exact for the tree metric, linear in the table size, and suitable for
    inner loops.
    """
    _check_pair(mu, nu)
    pair = tree_levels(np.stack((mu.masses, nu.masses)), mu.space.d)
    return float(w1_tree_levels(mu.space, pair[:1], pair[1])[0])


def distance_matrix(space: ShiftSpace, depth: int) -> np.ndarray:
    """Pairwise gamma^(first difference) over all depth-n words."""
    depth = check_count("depth", depth)
    if depth == 0:
        return np.zeros((1, 1))   # the empty word; argmax needs a digit
    digits = symbol_table(depth, space.d)
    diff = digits[:, None, :] != digits[None, :, :]
    first = np.argmax(diff, axis=2)
    return np.where(diff.any(axis=2), space.gamma ** first, 0.0)


@dataclass
class TransportReport:
    """The LP oracle's answer for k paired rows: ``w1``, ``duality_gap``
    and ``potential`` hold row i's LP value, its gap |primal - dual| and
    its potential f on the d^n words (min 0); ``truncation_error`` is
    gamma^n; ``lps`` counts the packed LPs and ``lp_solves`` every
    ``linprog`` call, so ``lp_solves - lps`` is the number of retries."""
    w1: np.ndarray              # (k,)
    duality_gap: np.ndarray     # (k,)
    potential: np.ndarray       # (k, d^n)
    truncation_error: float
    lps: int
    lp_solves: int


def _transport_constraints(shapes):
    """Marginal constraints of a block-diagonal LP as one CSR matrix.  Block
    b is an n_src x n_snk plan flattened row-major after the plans of the
    blocks before it; its rows are one row-sum row per source, then one
    column-sum row per sink but the last.  The marginal rows of a block
    have rank one less than their count, so that last row is redundant;
    kept, it lets presolve flag near-degenerate instances infeasible."""
    from scipy import sparse

    indices, lengths = [], []
    start = 0
    for n_src, n_snk in shapes:
        cells = np.arange(start, start + n_src * n_snk).reshape(n_src, n_snk)
        indices += [cells.ravel(), cells.T[:-1].ravel()]
        lengths += [np.full(n_src, n_snk), np.full(n_snk - 1, n_src)]
        start += cells.size
    indices = np.concatenate(indices)
    indptr = np.concatenate([[0], np.cumsum(np.concatenate(lengths))])
    return sparse.csr_matrix(
        (np.ones(indices.size), indices, indptr), shape=(indptr.size - 1, start)
    )


def _packed_lps(rows):
    """Consecutive runs of ``rows``, (index, sources, sinks) triples, each
    of at most ``LP_BLOCK_VARS`` plan variables; a row whose plan alone is
    larger is a run of its own."""
    run, size = [], 0
    for row in rows:
        cells = row[1].size * row[2].size
        if run and size + cells > LP_BLOCK_VARS:
            yield run
            run, size = [], 0
        run.append(row)
        size += cells
    if run:
        yield run


def _solve(cost, A_eq, b_eq):
    """One packed LP by dual simplex, presolve off; a failed solve is
    retried with presolve on.  Returns the result and the solve count."""
    # Dual simplex lands on an exact basic solution; the default tolerances
    # (1e-7) are too loose for the 1e-9 oracle contract.
    opts = {
        "primal_feasibility_tolerance": 1e-10,
        "dual_feasibility_tolerance": 1e-10,
    }
    linprog = sys.modules[__name__].linprog
    for solves, presolve in enumerate((False, True), start=1):
        res = linprog(
            cost, A_eq=A_eq, b_eq=b_eq, bounds=(0, None),
            method="highs-ds", options={**opts, "presolve": presolve},
        )
        if res.status == 0:
            return res, solves
    raise RuntimeError(f"transportation LP failed: {res.message}")


def w1_lp_oracle(space: ShiftSpace, mu: np.ndarray, nu: np.ndarray) -> TransportReport:
    """Solve the transportation LP of the excess mass of row i of ``mu``
    over row i of ``nu``, two (k, d^n) tables of depth-n cylinder masses
    on ``space``, and certify each row with a dual potential.

    Row i's sources are the words where mu > nu, with supply mu - nu; its
    sinks are the words where nu > mu, with demand nu - mu; its cost is
    the sub-block of the word distance matrix D between them.  Its primal
    is min <pi, D> over such plans.  Adding the common mass min(mu, nu) on
    the diagonal turns a plan into a coupling of mu and nu at the same
    cost, so the primal is >= W1.  From the LP equality duals v of the
    sinks we build f(x) = min over sinks y of [D(x, y) - v(y)] on every
    word; a min of 1-Lipschitz functions is 1-Lipschitz for the word
    metric, so mu(f) - nu(f) <= W1.  The gap between the two bounds is
    reported as ``duality_gap``; after shifting its min to 0, f lies in
    [0, 1].  Equal rows, and rows whose excess is one-sided (rounding
    only), need no LP: W1 is 0, the potential is 0 and the gap is 0.

    The rows that need an LP are packed in order into block-diagonal LPs
    of at most ``LP_BLOCK_VARS`` plan variables (see the module
    docstring); the blocks share no variable or constraint, so each row
    reads its plan and its sink duals off its own block.
    """
    mu, nu = (np.atleast_2d(check_numbers(name, t)) for name, t in (("mu", mu), ("nu", nu)))
    if mu.ndim != 2 or mu.shape != nu.shape:
        raise ValueError(f"tables of shapes {mu.shape} and {nu.shape} are not paired")
    k, n_words = check_count("number of rows", len(mu), 1), mu.shape[1]
    depth = round(math.log(max(n_words, 1), space.d))
    if space.n_words(depth) != n_words:
        raise ValueError(f"{n_words} columns are not a power of d = {space.d}")
    if n_words > LP_MAX_POINTS:
        raise ValueError(
            f"{n_words} support points exceed the oracle limit {LP_MAX_POINTS}"
        )
    mu, nu = check_probability_rows(mu), check_probability_rows(nu)
    excess = mu - nu
    rows = [(i, np.flatnonzero(row > 0.0), np.flatnonzero(row < 0.0))
            for i, row in enumerate(excess)]
    D = distance_matrix(space, depth)
    w1, gap, potential = np.zeros(k), np.zeros(k), np.zeros((k, n_words))
    lps = solves = 0
    for lp in _packed_lps([row for row in rows if row[1].size and row[2].size]):
        costs = [D[np.ix_(src, snk)].ravel() for _, src, snk in lp]
        A_eq = _transport_constraints([(src.size, snk.size) for _, src, snk in lp])
        b_eq = np.concatenate([np.concatenate([excess[i, src], -excess[i, snk[:-1]]])
                               for i, src, snk in lp])
        res, count = _solve(np.concatenate(costs), A_eq, b_eq)
        lps, solves = lps + 1, solves + count
        var = con = 0
        for (i, src, snk), cost in zip(lp, costs):
            w1[i] = cost @ res.x[var:var + cost.size]
            # the sink duals; that of the dropped redundant row is pinned to 0
            sinks = con + src.size
            v = np.append(res.eqlin.marginals[sinks:sinks + snk.size - 1], 0.0)
            f = (D[:, snk] - v).min(axis=1)
            potential[i] = f - f.min()
            gap[i] = abs(w1[i] - (mu[i] @ potential[i] - nu[i] @ potential[i]))
            var += cost.size
            con = sinks + snk.size - 1
    return TransportReport(w1, gap, potential, space.gamma ** depth, lps, solves)
