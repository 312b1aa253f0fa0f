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
from typing import Optional

import numpy as np

from .shift import CylinderMeasure, DepthKFunction, ShiftSpace, check_count, symbol_table

LP_MAX_POINTS = 1024
BLOCK_CELLS = 1 << 15   # cells per row block of a table streamed through a batched pass


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
    if check_count("depth", depth) == 0:
        return np.zeros((1, 1))   # the empty word; argmax needs a digit
    digits = symbol_table(depth, space.d)
    diff = digits[:, None, :] != digits[None, :, :]
    first = np.argmax(diff, axis=2)
    return np.where(diff.any(axis=2), space.gamma ** first, 0.0)


@dataclass
class TransportReport:
    w1: float
    truncation_error: float
    potential: Optional[DepthKFunction] = None
    duality_gap: Optional[float] = None
    lp_solves: int = 0   # 2 when the LP was retried without presolve


def _transport_constraints(n_src: int, n_snk: int):
    """Marginal constraints of an n_src x n_snk plan flattened row-major, as
    a CSR matrix: one row-sum row per source, then one column-sum row per
    sink."""
    from scipy import sparse

    cells = np.arange(n_src * n_snk)
    indices = np.concatenate([cells, cells.reshape(n_src, n_snk).T.ravel()])
    indptr = np.concatenate([
        np.arange(0, n_src * n_snk + 1, n_snk),
        n_src * n_snk + n_src * np.arange(1, n_snk + 1),
    ])
    return sparse.csr_matrix(
        (np.ones(indices.size), indices, indptr), shape=(n_src + n_snk, cells.size)
    )


def w1_lp_oracle(mu: CylinderMeasure, nu: CylinderMeasure) -> TransportReport:
    """Solve the transportation LP of the excess mass and certify it with a
    dual potential.

    Sources are the words where mu > nu, with supply mu - nu; sinks are the
    words where nu > mu, with demand nu - mu; the cost is the sub-block of
    the word distance matrix between them.  The primal is min <pi, D> over
    such plans.  Adding the common mass min(mu, nu) on the diagonal turns
    a plan into a coupling of mu and nu at the same cost, so the primal is
    >= W1.  From the LP equality duals v of the sinks we build
    f(x) = min over sinks y of [D(x, y) - v(y)] on every word; a min of
    1-Lipschitz functions is 1-Lipschitz for the word metric, so
    mu(f) - nu(f) <= W1.  The gap between the two bounds is reported as
    ``duality_gap``; after shifting its min to 0, f lies in [0, 1].  Equal
    tables need no LP: W1 is 0 and the potential is 0.
    """
    _check_pair(mu, nu)
    n_words = mu.space.n_words(mu.depth)
    if n_words > LP_MAX_POINTS:
        raise ValueError(
            f"{n_words} support points exceed the oracle limit {LP_MAX_POINTS}"
        )
    if mu.depth == 0:
        return TransportReport(0.0, 1.0, None, 0.0)

    truncation = mu.space.gamma ** mu.depth
    excess = mu.masses - nu.masses
    src = np.flatnonzero(excess > 0.0)
    snk = np.flatnonzero(excess < 0.0)
    if src.size == 0 or snk.size == 0:
        # equal tables; a one-sided excess is normalization rounding only
        zero = DepthKFunction(mu.space, mu.depth, np.zeros(n_words))
        return TransportReport(0.0, truncation, zero, 0.0)

    D = distance_matrix(mu.space, mu.depth)
    cost = D[np.ix_(src, snk)].ravel()
    # the marginal constraints have rank one less than their count;
    # dropping the last keeps presolve from flagging near-degenerate
    # instances infeasible.
    A_eq = _transport_constraints(src.size, snk.size)[:-1]
    b_eq = np.concatenate([excess[src], -excess[snk]])[:-1]
    # Dual simplex lands on an exact basic solution; the default tolerances
    # (1e-7) are too loose for the 1e-9 oracle contract.
    opts = {
        "primal_feasibility_tolerance": 1e-10,
        "dual_feasibility_tolerance": 1e-10,
    }
    linprog = sys.modules[__name__].linprog
    res = linprog(
        cost, A_eq=A_eq, b_eq=b_eq, bounds=(0, None),
        method="highs-ds", options=opts,
    )
    solves = 1
    if res.status != 0:
        res = linprog(
            cost, A_eq=A_eq, b_eq=b_eq, bounds=(0, None),
            method="highs-ds", options={**opts, "presolve": False},
        )
        solves = 2
    if res.status != 0:
        raise RuntimeError(f"transportation LP failed: {res.message}")
    primal = float(res.fun)

    # dual of the dropped redundant constraint is pinned to 0
    v = np.append(res.eqlin.marginals[src.size:], 0.0)
    f_vals = (D[:, snk] - v[None, :]).min(axis=1)
    f_vals = f_vals - f_vals.min()
    dual_value = float(mu.masses @ f_vals - nu.masses @ f_vals)
    potential = DepthKFunction(mu.space, mu.depth, f_vals)
    return TransportReport(
        w1=primal,
        truncation_error=truncation,
        potential=potential,
        duality_gap=abs(primal - dual_value),
        lp_solves=solves,
    )

