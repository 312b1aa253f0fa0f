"""Running-max Birkhoff dynamics and the max-plus partition function.

The running max of an observable along shift orbits converges almost
surely to its sup when the sampling measure charges every cylinder.
Orbits are drawn from one-step Markov chains, a start distribution and a
row-stochastic transition matrix; an i.i.d. (Bernoulli) measure is the
chain whose transition rows all equal its masses.  The
partition function c_n(t) = (1/n) log E[exp(n t max-sum)] feeds a
Chebyshev-type upper large-deviation bound inf over t >= 0 of
t b + c(-t) (``ldp_upper_bound``).  The two-symbol worked example has
everything in closed form, each in one function.  With f the indicator
of first symbol 1 and symbol 2 carrying mass p, the max-sum M_n is 0
with probability p^n and 1 otherwise, so:

- ``c_n_exact``: c_n(-t) = (1/n) log(p^n + (1 - p^n) exp(-n t));
- ``c_limit_exact``: its limit max(-t, log p);
- ``log_event_probability``: log P(M_n <= b), which is n log p for
  0 <= b < 1, so the true decay rate is log p;
- ``bernoulli_ldp_bound``: the bound (1 - b) log p at t = -log p,
  strictly above that rate;
- ``chebyshev_step_exact``: both sides of the Chebyshev step.

``c_maxplus_convexity_check`` reads a partition function c, from a closed
form or from ``partition_function_mc``, and checks its max-plus convexity.

The Monte Carlo c_n(t) carries a bootstrap interval drawn as value counts:
the running maxes of m orbits take u <= min(m, d^depth) distinct values,
and one multinomial draw of their counts gives every resample, at a cost of
O(m log m + N_BOOT u) rather than O(N_BOOT m).  It is the slower way once u
passes about m / 14 (measured at m = 10^4), which no depth-1 observable
reaches.

Orbits are drawn step-major, STEP_BLOCK steps of every orbit at a time
(``OrbitSampler.steps``), and read in ``shift.row_blocks`` of orbits.  A
depth-k window is read as its base-d code in
``np.min_scalar_type(d**k)``, one byte while d^k <= 255: the running max
is the max of the codes' ranks in f's sorted values, read back through
the sorted table, and the limit test reads a hit flag per code.  The
limit test streams the step blocks and stops drawing once every orbit
has hit the sup, since later windows cannot move a first hit.

Symbol convention: the classical two-letter presentation of this example
uses alphabet {0, 1} with mass p on 0 and f = indicator of 1.  Here 0
becomes symbol 2 and 1 becomes symbol 1, so f(1) = 1, f(2) = 0 and
symbol 2 carries mass p.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Tuple

import numpy as np

from .semiring import check_maxplus_probability
from .shift import DepthKFunction, check_count, check_probability_rows, row_blocks


# ---------------------------------------------------------------------------
# Orbit sampling
# ---------------------------------------------------------------------------

# Orbits are drawn this many steps at a time, as one (steps, n_orbits) block:
# the early-stop granularity of the streamed limit test, counted in steps.
STEP_BLOCK = 32


class OrbitSampler:
    """Seeded sampler of one-step Markov symbol streams on symbols 1..d.

    A stream starts from the distribution ``probs`` and steps by the
    row-stochastic (d, d) matrix ``transition``.  An i.i.d. (Bernoulli)
    stream is the chain whose rows all equal ``probs``.  Each orbit is a
    fresh stream (no window reuse along a single long orbit), so Birkhoff
    windows across orbits are independent.
    """

    def __init__(self, probs, transition, n_orbits: int, seed: int):
        # a negative seed would fail only at numpy's first draw, which does not name it
        self.n_orbits = check_count("n_orbits", n_orbits, 1)
        self.seed = check_count("seed", seed)
        p = np.array(probs, dtype=float).reshape(1, -1)
        self.probs = check_probability_rows(p)[0]
        self.d = d = self.probs.size
        P = np.array(transition, dtype=float)
        if P.shape != (d, d):
            raise ValueError(f"the transition matrix must be {d} x {d}")
        self.transition = check_probability_rows(P)

    @classmethod
    def bernoulli(cls, probs, n_orbits: int, seed: int) -> "OrbitSampler":
        """i.i.d. symbols of masses ``probs``."""
        p = np.asarray(probs, dtype=float).reshape(-1)
        return cls(p, np.tile(p, (p.size, 1)), n_orbits=n_orbits, seed=seed)

    @classmethod
    def markov(cls, transition, n_orbits: int, seed: int) -> "OrbitSampler":
        """The chain of ``transition`` started from its stationary vector."""
        P = check_probability_rows(np.array(transition, dtype=float))
        vals, vecs = np.linalg.eig(P.T)
        pi = np.real(vecs[:, int(np.argmin(np.abs(vals - 1.0)))])
        return cls(pi / pi.sum(), P, n_orbits=n_orbits, seed=seed)

    @property
    def positive_on_cylinders(self) -> bool:
        return bool((self.transition > 0).all())

    def steps(self, length: int) -> Iterator[np.ndarray]:
        """The first ``length`` steps of every orbit, step-major, in blocks.

        Yields (b, n_orbits) tables of symbols 1..d, b <= STEP_BLOCK, in
        the dtype of ``sample``; stacked, they are ``sample(length).T``, and
        each step writes one contiguous row.  Each step draws one uniform
        per orbit; the next symbol counts the first d - 1 cumulative masses
        of the current row that lie below it, so a row summing to just
        under 1 still ends on symbol d.  A block is drawn when it is asked
        for, so a caller that stops early draws at most STEP_BLOCK steps
        past what it read.  A negative length raises at the call.
        """
        length = check_count("the orbit length", length)
        rng = np.random.default_rng(self.seed)
        dtype = np.min_scalar_type(self.d)
        # row d is the start distribution, so the first step is one more step
        # of the same chain, from the state d before it
        cum = np.cumsum(np.vstack([self.transition, self.probs]), axis=1)
        columns = cum.T[:-1].copy()
        state = np.full(self.n_orbits, self.d)

        def block(size: int) -> np.ndarray:
            nonlocal state
            out = np.empty((size, self.n_orbits), dtype=dtype)
            for row in out:
                u = rng.random(self.n_orbits)
                state = sum(column.take(state) < u for column in columns)
                row[...] = state
            out += 1    # 0-based symbols until here
            return out

        return (block(min(STEP_BLOCK, length - lo)) for lo in range(0, length, STEP_BLOCK))

    def sample(self, length: int) -> np.ndarray:
        """(n_orbits, length) table of symbols 1..d.

        Its dtype is ``np.min_scalar_type(d)``, the smallest unsigned
        integer type that holds d: uint8 for d <= 255.  Length 0 gives an
        (n_orbits, 0) table.  The table is filled from the step-major
        blocks of ``steps(length)``, one transposed block copy each, and
        holds their draws exactly.
        """
        blocks = self.steps(length)     # rejects a negative length first
        orbits = np.empty((self.n_orbits, length), dtype=np.min_scalar_type(self.d))
        lo = 0
        for block in blocks:
            orbits[:, lo : lo + len(block)] = block.T
            lo += len(block)
        return orbits


def _orbit_length(sampler: OrbitSampler, f: DepthKFunction, n: int) -> int:
    """Length of the orbits of ``sampler`` that hold n windows of f."""
    if sampler.d != f.space.d:
        raise ValueError(
            f"the sampler draws {sampler.d} symbols but f reads {f.space.d}"
        )
    return check_count("the window count", n, 1) + max(f.depth, 1) - 1


def _window_codes(symbols: np.ndarray, d: int, k: int, n: int, axis: int) -> np.ndarray:
    """Base-d codes of the first n depth-k windows along ``axis`` of a table
    of symbols 1..d, in ``np.min_scalar_type(d**k)``.

    Every partial code of Horner's rule stays at most d^k, so the narrow
    dtype never wraps; the symbols are cast to it unchecked, so the caller
    must have checked them.
    """
    dtype = np.min_scalar_type(d ** k)

    def window(j: int) -> np.ndarray:
        return symbols[:, j : j + n] if axis else symbols[j : j + n]

    codes = np.subtract(window(0), 1, dtype=dtype, casting="unsafe")
    for j in range(1, k):
        codes *= d
        np.add(codes, window(j), out=codes, dtype=dtype, casting="unsafe")
        codes -= 1
    return codes


def birkhoff_max_table(f: DepthKFunction, orbits: np.ndarray, n: int) -> np.ndarray:
    """Vector of running maxes over the first n windows of each orbit row.

    The table is read in ``shift.row_blocks`` of about ``BLOCK_CELLS``
    windows.  Each window's code is mapped by one ``np.take`` to its rank
    in the sorted order of f's values, in the code's dtype, so a window
    costs 2 bytes (code and rank) while d^depth <= 255, against 16 for an
    int64 code and a float64 value.  A row's max rank reads its value back
    from the sorted values, the float max bit for bit.  The whole table is
    checked before any block is read.  Symbols outside 1..d are rejected:
    their codes would read other words' values, or wrap around the table,
    instead of failing.
    """
    k = max(f.depth, 1)
    d = f.space.d
    orbits = np.asarray(orbits)
    if orbits.ndim != 2 or orbits.shape[0] == 0:
        raise ValueError(
            f"orbits must be a 2-D table with at least one row, got {orbits.shape}"
        )
    if not np.issubdtype(orbits.dtype, np.integer):
        raise ValueError(f"orbit symbols must be integers, got dtype {orbits.dtype}")
    n = check_count("the window count", n, 1)
    if orbits.shape[1] < n + k - 1:
        raise ValueError("orbits too short for the requested window count")
    if orbits.min() < 1 or orbits.max() > d:
        raise ValueError(f"orbit symbols must lie in 1..{d}")
    table = f.at_depth(k)
    order = np.argsort(table)
    ranks = np.empty(table.size, dtype=np.min_scalar_type(d ** k))
    ranks[order] = np.arange(table.size)
    top = np.concatenate([
        np.take(ranks, _window_codes(orbits[block], d, k, n, axis=1)).max(axis=1)
        for block in row_blocks(orbits.shape[0], n)
    ])
    return table[order][top]


@dataclass
class BirkhoffReport:
    sup_value: float
    attained_fraction: float
    first_hit_mean: float
    miss_probability_estimate: float  # exact for depth <= 1 under the chain


def birkhoff_limit_test(
    sampler: OrbitSampler,
    f: DepthKFunction,
    length: int,
) -> BirkhoffReport:
    """Fraction of orbits whose running max reaches sup f within 1e-9.

    Requires the sampling measure to charge every cylinder (otherwise the
    sup over the whole space need not be seen along orbits).

    The orbits are streamed from ``sampler.steps``, one step-major block at
    a time, with the last depth - 1 steps carried into the next block's
    windows; each window's code reads its hit flag from the table of
    f >= sup f - 1e-9.  No orbit table is held, and drawing stops after
    the block in which the last orbit first hits the sup, because later
    windows cannot change a first hit: the report is that of the whole
    table, drawn from at most STEP_BLOCK steps past the latest first hit.
    """
    if not sampler.positive_on_cylinders:
        raise ValueError("sampling measure must be positive on all cylinders")
    steps = _orbit_length(sampler, f, length)
    k = max(f.depth, 1)
    sup_f = float(f.values.max())
    hits = f.at_depth(k) >= sup_f - 1e-9

    # per orbit, the first window that hits the sup, or length + 1 if none does
    first = np.full(sampler.n_orbits, length + 1)
    seen = 0    # windows read
    carry = np.empty((0, sampler.n_orbits), dtype=np.min_scalar_type(sampler.d))
    for block in sampler.steps(steps):
        rows = np.concatenate((carry, block))
        w = len(rows) - (k - 1)     # windows that start in rows
        if w < 1:   # blocks shorter than a window
            carry = rows
            continue
        carry = rows[w:].copy()
        # fancy indexing casts the codes to intp a buffer at a time, where
        # np.take would cast them all at once, at 8 bytes a window
        hit = hits[_window_codes(rows, sampler.d, k, w, axis=0)]
        new = hit.any(axis=0) & (first > length)
        first[new] = seen + 1 + hit.argmax(axis=0)[new]
        seen += w
        if (first <= length).all():
            break
    attained = first <= length

    if f.depth <= 1:
        # exact: the chain stays on the symbols below the sup for `length`
        # symbols; the depth-1 table, or the depth-0 constant per symbol
        off = ~hits
        stay = np.linalg.matrix_power(sampler.transition[np.ix_(off, off)], length - 1)
        miss = float((sampler.probs[off] @ stay).sum())
    else:
        miss = float(1.0 - attained.mean())
    return BirkhoffReport(
        sup_value=sup_f,
        attained_fraction=float(attained.mean()),
        first_hit_mean=float(first[attained].mean()) if attained.any() else np.inf,
        miss_probability_estimate=miss,
    )


# ---------------------------------------------------------------------------
# The worked example's closed forms, and the Monte Carlo partition function
# ---------------------------------------------------------------------------


def _require_finite(**values: float) -> None:
    for name, value in values.items():
        if not np.isfinite(value):
            raise ValueError(f"{name} must be a finite number, got {value!r}")


def _require_example(p: float, n: int = 1) -> None:
    """The worked example needs 0 < p < 1 and n >= 1."""
    if not (0.0 < p < 1.0):
        raise ValueError("p must lie in (0, 1)")
    check_count("n", n, 1)


def c_n_exact(p: float, t: float, n: int) -> float:
    """c_n(-t) in the worked example: (1/n) log(p^n + (1 - p^n) exp(-n t)).

    With a = log p and b = log(1 - p^n)/n - t this is
    max(a, b) + log(1 + exp(-n |a - b|))/n; each term is divided by n
    before the two are combined, so the value is finite for every finite t.
    """
    _require_example(p, n)
    _require_finite(t=t)
    a = float(np.log(p))
    b = float(np.log1p(-p ** n)) / n - t
    return max(a, b) + float(np.log1p(np.exp(-n * abs(a - b)))) / n


def c_limit_exact(p: float, t: float) -> float:
    """Limit of c_n(-t): max(-t, log p)."""
    _require_example(p)
    _require_finite(t=t)
    return max(-t, float(np.log(p)))


def log_event_probability(p: float, b: float, n: int) -> float:
    """log P(max-sum <= b) in the worked example.

    The max-sum over n windows is 0 on the all-symbol-2 cylinder, of mass
    p^n, and 1 elsewhere, so this is -inf for b < 0, n log p for
    0 <= b < 1 and 0 for b >= 1.
    """
    _require_example(p, n)
    if np.isnan(b):
        raise ValueError(f"b must be a number, got {b!r}")
    if b < 0.0:
        return -np.inf
    return n * float(np.log(p)) if b < 1.0 else 0.0


@dataclass
class McEstimate:
    value: float
    ci_low: float
    ci_high: float
    n_samples: int
    seed: int


def _log_mean_exp(x: np.ndarray) -> float:
    m = x.max()
    return float(m + np.log(np.mean(np.exp(x - m))))


def _log_mean_exp_counts(levels: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``_log_mean_exp`` of each row's sample, given by its counts of the
    distinct values ``levels``.  Each row is shifted by the largest level it
    holds, so a row that misses a level far above the rest cannot underflow
    to log 0."""
    held = counts > 0
    top = np.where(held, levels, -np.inf).max(axis=-1)
    terms = np.exp(np.where(held, levels - top[..., None], -np.inf))
    return top + np.log((counts * terms).sum(axis=-1) / counts.sum(axis=-1))


N_BOOT = 200      # bootstrap resamples behind the confidence interval
CI_LEVEL = 0.95   # its coverage


def partition_function_mc(
    sampler: OrbitSampler, f: DepthKFunction, t: float, n: int
) -> McEstimate:
    """Monte Carlo estimate of c_n(t) with a bootstrap confidence interval.

    A bootstrap resample of the m running maxes matters only through how
    many copies of each distinct value it holds, and those counts are
    Multinomial(m, counts / m).  So the N_BOOT resamples are one multinomial
    draw of counts over the u distinct values, u <= min(m, d^depth), at a
    cost of O(m log m + N_BOOT u) instead of O(N_BOOT m) for drawing every
    index.  At m = 10^4 the count draw is the slower of the two once u
    passes about m / 14: 39 ms against 29 ms at u = 1,024 on a 2-vCPU
    Xeon.  A depth-1 observable, as in the worked example, has u <= 2.
    """
    _require_finite(t=t)
    maxes = birkhoff_max_table(f, sampler.sample(_orbit_length(sampler, f, n)), n)
    expo = n * t * maxes
    value = _log_mean_exp(expo) / n

    rng = np.random.default_rng(sampler.seed + 0x9E3779B9)
    m = maxes.size
    levels, counts = np.unique(expo, return_counts=True)
    draws = rng.multinomial(m, counts / m, size=N_BOOT)
    boots = _log_mean_exp_counts(levels, draws) / n
    alpha = (1.0 - CI_LEVEL) / 2.0
    lo, hi = np.quantile(boots, [alpha, 1.0 - alpha])
    return McEstimate(value, float(lo), float(hi), m, sampler.seed)


# ---------------------------------------------------------------------------
# Upper large-deviation bound
# ---------------------------------------------------------------------------


def ldp_upper_bound(
    c_neg: Callable[[float], float],
    b: float,
    sup_f: float,
    t_max: float,
) -> Tuple[float, float]:
    """Minimize t b + c(-t) over t in [0, t_max]; returns (minimizer, bound).

    The objective is convex in t (log-moment functions are convex), and
    typically has kinks, so the search is golden-section, which needs no
    smoothness; it stops once the bracket is narrower than 1e-10.  ``b``,
    ``sup_f`` and ``t_max`` must be finite, and ``t_max`` at least 0, where
    the Chebyshev step holds.
    """
    _require_finite(b=b, sup_f=sup_f, t_max=t_max)
    if t_max < 0:
        raise ValueError(f"t_max must be at least 0, got {t_max!r}")
    if b >= sup_f:
        raise ValueError("threshold must lie strictly below sup f")

    def obj(t: float) -> float:
        return t * b + c_neg(t)

    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, d = 0.0, float(t_max)
    c1 = d - invphi * (d - a)
    c2 = a + invphi * (d - a)
    f1, f2 = obj(c1), obj(c2)
    while d - a > 1e-10:
        if f1 <= f2:
            d, c2, f2 = c2, c1, f1
            c1 = d - invphi * (d - a)
            f1 = obj(c1)
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + invphi * (d - a)
            f2 = obj(c2)
    t_star = (a + d) / 2.0
    return t_star, obj(t_star)


def bernoulli_ldp_bound(p: float, b: float) -> Tuple[float, float]:
    """Bound for the worked example via its closed-form c: uses the
    bracket [0, 10 |log p|]."""
    _require_example(p)
    if not (0.0 < b < 1.0):
        raise ValueError("threshold must lie in (0, 1) for this example")
    return ldp_upper_bound(
        lambda t: c_limit_exact(p, t), b, sup_f=1.0,
        t_max=10.0 * abs(np.log(p)),
    )


# ---------------------------------------------------------------------------
# Max-plus convexity of the partition function
# ---------------------------------------------------------------------------


@dataclass
class ConvexityReport:
    equality_residual: float   # c(max(s,t)) vs max(c(s), c(t)), f >= 0
    convexity_slack: float     # max(a+c(t), b+c(s)) - c(max(a+t, b+s)), f >= 1

    @property
    def holds(self) -> bool:
        return self.equality_residual <= 1e-12 and self.convexity_slack >= -1e-12


def c_maxplus_convexity_check(
    c: Callable[[float], float], s: float, t: float, alpha: float, beta: float
) -> ConvexityReport:
    """Check monotone-equality and max-plus convexity of a partition function.

    ``c`` is a closed form, or ``partition_function_mc``'s value at one n
    over a seeded sampler, which draws the same orbits at every argument,
    so both relations hold pathwise and residuals are at float precision.
    Convexity needs the observable >= 1 and weights with max(alpha, beta)
    = 0 (beta = -inf degenerates it to c(t) <= c(t)), an idempotent
    probability: ``check_maxplus_probability`` rejects a NaN or +inf weight
    and sets one within ``NORMALIZATION_TOL`` of 0 to 0.  ``c`` is read
    once per distinct argument, at most three times.
    """
    _require_finite(s=s, t=t)
    alpha, beta = check_maxplus_probability([alpha, beta]).tolist()

    # a -inf weight drops out of both maxes, as bottom does
    joint = max(alpha + t, beta + s)
    at = {u: c(u) for u in dict.fromkeys((s, t, joint))}
    equality_residual = abs(at[max(s, t)] - max(at[s], at[t]))
    slack = max(alpha + at[t], beta + at[s]) - at[joint]
    return ConvexityReport(equality_residual=equality_residual, convexity_slack=slack)


def chebyshev_step_exact(p: float, t: float, b: float, n: int) -> Tuple[float, float]:
    """Both sides of the Chebyshev step in the worked example, exactly.

    Returns (P(max-sum <= b), exp(n (t b + c_n(-t)))); the first never
    exceeds the second for t >= 0.
    """
    if t < 0:
        raise ValueError("the Chebyshev step needs t >= 0")
    prob = float(np.exp(log_event_probability(p, b, n)))
    return prob, float(np.exp(n * (t * b + c_n_exact(p, t, n))))
