"""Every integer argument goes through ``shift.check_count``: sizes, depths,
word and orbit lengths, window and trial counts, and seeds.  Every real
argument or table that must be finite goes through ``shift.check_real``:
rates, tilts, thresholds, tolerances, Lipschitz constants, merge radii,
function tables, level-1 observables and their families, grids, and the
inverse problem's density.  Every other number or float table from a
caller, whether masses, max-plus weights and densities, observables, the
worked example's p and b, or what an objective or density returns, is read
by ``semiring.check_numbers``, which the two value checks call too.  Each
kind refuses what is not of it by name, with one message, and turns numpy
numbers into Python ones."""

import math
import re

import numpy as np
import pytest

from maxtherm import cli, goldens
from maxtherm.dynamics import (
    OrbitSampler,
    bernoulli_ldp_bound,
    birkhoff_limit_test,
    birkhoff_max_table,
    c_limit_exact,
    c_maxplus_convexity_check,
    c_n_exact,
    chebyshev_step_exact,
    ldp_upper_bound,
    log_event_probability,
    partition_function_mc,
)
from maxtherm.ifs import (
    MpIFSSystem,
    WeightedJacobianFamily,
    attractor_build,
    invariant_pressure_solve,
    inverse_problem_solve,
    mpifs_invariance_check,
    mpifs_markov,
    mpifs_ruelle,
    mpifs_transfer,
    pushforward_invariance_check,
)
from maxtherm.semiring import MaxPlus, check_maxplus_probability, check_numbers, pressure
from maxtherm.shift import (
    CylinderMeasure,
    DepthKFunction,
    Jacobian,
    ShiftSpace,
    check_count,
    check_real,
    make_bernoulli_jacobian,
    symbol_table,
    word_index,
)
from maxtherm.simplex import (
    SimplexGrid,
    affine_observable_family,
    concave_envelope_1d,
    convex_pressure_gamma,
    entropy_recovery,
    gibbs_solution,
    level2_pressure,
    log_sum_exp,
    maximize_on_simplex,
    pressure_axioms_check,
    shannon_entropy,
    shannon_entropy_table,
)
from maxtherm.transport import distance_matrix, w1_lp_oracle

SPACE = ShiftSpace(2, 0.3)
NU0 = CylinderMeasure.point_mass(SPACE, (2,))
FAMILY = WeightedJacobianFamily(
    [make_bernoulli_jacobian(0.3, SPACE), make_bernoulli_jacobian(0.7, SPACE)],
    [0.0, -1.0],
)
F = DepthKFunction(SPACE, 1, [1.0, 0.0])


def _sampler(n_orbits=3, seed=0):
    return OrbitSampler.bernoulli([0.5, 0.5], n_orbits, seed)


# (parameter, name heading the error, least value, call with the value)
ARGUMENTS = [
    ("ShiftSpace.d", "alphabet size d", 2, lambda v: ShiftSpace(v, 0.2)),
    ("DepthKFunction.depth", "depth", 0, lambda v: DepthKFunction(SPACE, v, [1.0, 2.0])),
    ("CylinderMeasure.depth", "depth", 0, lambda v: CylinderMeasure(SPACE, v, [0.5, 0.5])),
    ("Jacobian.depth", "depth", 0, lambda v: Jacobian(SPACE, v, [0.3, 0.7])),
    ("CylinderMeasure.bernoulli.depth", "depth", 0,
     lambda v: CylinderMeasure.bernoulli(SPACE, [0.5, 0.5], v)),
    ("DepthKFunction.at_depth", "depth", 0, lambda v: F.at_depth(v)),
    ("CylinderMeasure.at_depth", "depth", 0, lambda v: NU0.at_depth(v)),
    ("word_index.symbol", "symbol", 1, lambda v: word_index([v], 2)),
    ("symbol_table.depth", "depth", 0, lambda v: symbol_table(v, 2)),
    ("symbol_table.d", "alphabet size d", 1, lambda v: symbol_table(2, v)),
    ("distance_matrix.depth", "depth", 0, lambda v: distance_matrix(SPACE, v)),
    ("attractor_build.word_length", "word length", 1,
     lambda v: attractor_build(FAMILY, v, NU0)),
    ("invariant_pressure_solve.word_length", "word length", 1,
     lambda v: invariant_pressure_solve(FAMILY, lambda mu: mu.mass_of((1,)), v, NU0)),
    ("SimplexGrid.d", "simplex dimension d", 2, lambda v: SimplexGrid(v, 10)),
    ("SimplexGrid.m", "grid resolution m", 1, lambda v: SimplexGrid(2, v)),
    ("pressure_axioms_check.trials", "trials", 1,
     lambda v: pressure_axioms_check(shannon_entropy_table, SimplexGrid(2, 10), trials=v)),
    ("pressure_axioms_check.seed", "seed", 0,
     lambda v: pressure_axioms_check(shannon_entropy_table, SimplexGrid(2, 10), seed=v)),
    ("affine_observable_family.d", "simplex dimension d", 2,
     lambda v: affine_observable_family(v)),
    ("OrbitSampler.n_orbits", "n_orbits", 1, lambda v: _sampler(n_orbits=v)),
    ("OrbitSampler.seed", "seed", 0, lambda v: _sampler(seed=v)),
    ("OrbitSampler.steps", "the orbit length", 0, lambda v: _sampler().steps(v)),
    ("OrbitSampler.sample", "the orbit length", 0, lambda v: _sampler().sample(v)),
    ("birkhoff_limit_test.length", "the window count", 1,
     lambda v: birkhoff_limit_test(_sampler(), F, v)),
    ("birkhoff_max_table.n", "the window count", 1,
     lambda v: birkhoff_max_table(F, np.ones((2, 5), dtype=np.int64), v)),
    ("partition_function_mc.n", "the window count", 1,
     lambda v: partition_function_mc(_sampler(), F, 0.1, n=v)),
    ("c_n_exact.n", "n", 1, lambda v: c_n_exact(0.5, 0.1, v)),
    ("log_event_probability.n", "n", 1, lambda v: log_event_probability(0.5, 0.5, v)),
    ("chebyshev_step_exact.n", "n", 1, lambda v: chebyshev_step_exact(0.5, 0.1, 0.5, v)),
    ("check_gibbs_equilibrium.per_d", "per_d", 1,
     lambda v: goldens.check_gibbs_equilibrium(per_d=v)),
    ("check_transport_oracle.reps", "reps", 1,
     lambda v: goldens.check_transport_oracle(plan=((2, 0.3, 2, v),))),
    ("check_contraction_bounds.trials", "trials", 1,
     lambda v: goldens.check_contraction_bounds(trials=v)),
    ("check_contraction_bounds.depth", "depth", 1,
     lambda v: goldens.check_contraction_bounds(depth=v)),
    ("check_section_identity.trials", "trials", 1,
     lambda v: goldens.check_section_identity(trials=v)),
    ("check_mpifs_operators.systems", "systems", 1,
     lambda v: goldens.check_mpifs_operators(systems=v)),
    ("check_mpifs_operators.points", "points", 1,
     lambda v: goldens.check_mpifs_operators(points=v)),
    ("check_ldp_worked_example.n_max", "n_max", 1,
     lambda v: goldens.check_ldp_worked_example(n_max=v)),
    ("check_ldp_worked_example.mc_samples", "mc_samples", 0,
     lambda v: goldens.check_ldp_worked_example(mc_samples=v)),
    ("check_convex_pressure_suite.trials", "trials", 1,
     lambda v: goldens.check_convex_pressure_suite(trials=v)),
    ("cli.pressure.trials", "trials", 1, lambda v: cli._pressure(2, 10, v, 0)),
] + [
    (f"{check.__name__}.seed", "seed", 0, lambda v, check=check: check(seed=v))
    for check in (goldens.check_gibbs_equilibrium, goldens.check_transport_oracle,
                  goldens.check_contraction_bounds, goldens.check_section_identity,
                  goldens.check_mpifs_operators, goldens.check_convex_pressure_suite,
                  goldens.check_pushforward_invariance)
]
IDS = [row[0] for row in ARGUMENTS]
NOT_INTEGERS = {"float": 2.5, "bool": True, "str": "3", "None": None,
                "float64": np.float64(2.0)}
# points=None draws a system size per system, so None is no error there
NONE_ALLOWED = {"check_mpifs_operators.points"}


@pytest.mark.parametrize("name, call, value", [
    pytest.param(name, call, value, id=f"{parameter}-{kind}")
    for parameter, name, _, call in ARGUMENTS
    for kind, value in NOT_INTEGERS.items()
    if not (value is None and parameter in NONE_ALLOWED)
])
def test_non_integers_are_rejected_by_name(name, call, value):
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be an integer, got "
                                         f"{re.escape(repr(value))}$"):
        call(value)


@pytest.mark.parametrize("parameter, name, least, call", ARGUMENTS, ids=IDS)
def test_values_below_the_least_are_rejected_by_name(parameter, name, least, call):
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be at least {least}, "
                                         f"got {least - 1}$"):
        call(np.int64(least - 1))


@pytest.mark.parametrize("make, stored", [
    (lambda: ShiftSpace(np.int64(3), 0.2), lambda s: [s.d]),
    (lambda: DepthKFunction(SPACE, np.int64(1), [1.0, 2.0]), lambda f: [f.depth]),
    (lambda: CylinderMeasure(SPACE, np.int64(1), [0.5, 0.5]), lambda mu: [mu.depth]),
    (lambda: Jacobian(SPACE, np.int64(1), [0.3, 0.7]), lambda J: [J.depth]),
    (lambda: SimplexGrid(np.int32(3), np.int64(7)), lambda g: [g.d, g.m]),
    (lambda: _sampler(np.int64(3), np.uint32(7)), lambda s: [s.n_orbits, s.seed]),
], ids=["ShiftSpace", "DepthKFunction", "CylinderMeasure", "Jacobian", "SimplexGrid",
        "OrbitSampler"])
def test_numpy_integers_are_stored_as_int(make, stored):
    values = stored(make())
    assert all(type(v) is int for v in values), values


def test_numpy_integers_are_accepted_where_not_stored():
    assert word_index([np.int64(2), np.uint8(1)], 2) == 2
    assert _sampler().sample(np.int64(4)).shape == (3, 4)
    assert c_n_exact(0.5, 0.1, np.int64(3)) == c_n_exact(0.5, 0.1, 3)
    assert attractor_build(FAMILY, np.int64(2), NU0, eps=0.0).word_length == 2


def test_a_negative_seed_is_rejected_when_the_sampler_is_built():
    # numpy would reject it only at the first draw, without naming the seed
    with pytest.raises(ValueError, match="^seed must be at least 0, got -1$"):
        OrbitSampler([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]], n_orbits=2, seed=-1)
    with pytest.raises(ValueError, match="^seed must be at least 0, got -1$"):
        OrbitSampler.markov([[0.5, 0.5], [0.5, 0.5]], n_orbits=2, seed=-1)


@pytest.mark.parametrize("value, least, expected", [
    (0, 0, 0), (np.int8(-3), -5, -3), (np.uint64(2 ** 63), 1, 2 ** 63), (10 ** 30, 2, 10 ** 30),
])
def test_check_count_returns_a_python_int(value, least, expected):
    out = check_count("x", value, least)
    assert type(out) is int and out == expected


@pytest.mark.parametrize("value", [np.True_, 1.0, 1 + 0j, np.array(1), [1]],
                         ids=["numpy-bool", "float", "complex", "0-d-array", "list"])
def test_check_count_rejects_what_is_not_an_integer(value):
    with pytest.raises(ValueError, match="^x must be an integer, got "):
        check_count("x", value)


def _mass_of_one(mu):
    return mu.mass_of((1,))


def _c(t):
    return c_limit_exact(0.5, t)


# (parameter, name heading the error, least value, call with the value); a
# table argument is filled with the value
REALS = [
    ("ShiftSpace.gamma", "gamma", -math.inf, lambda v: ShiftSpace(2, v)),
    ("DepthKFunction.values", "table values", -math.inf,
     lambda v: DepthKFunction(SPACE, 1, np.full(2, v))),
    ("c_n_exact.t", "t", -math.inf, lambda v: c_n_exact(0.5, v, 3)),
    ("c_limit_exact.t", "t", -math.inf, lambda v: c_limit_exact(0.5, v)),
    ("partition_function_mc.t", "t", -math.inf,
     lambda v: partition_function_mc(_sampler(), F, v, 2)),
    ("ldp_upper_bound.b", "b", -math.inf, lambda v: ldp_upper_bound(_c, v, 1.0, 5.0)),
    ("ldp_upper_bound.sup_f", "sup_f", -math.inf, lambda v: ldp_upper_bound(_c, -1.0, v, 5.0)),
    ("ldp_upper_bound.t_max", "t_max", 0, lambda v: ldp_upper_bound(_c, 0.5, 1.0, v)),
    ("c_maxplus_convexity_check.s", "s", -math.inf,
     lambda v: c_maxplus_convexity_check(_c, v, 0.2, 0.0, -1.0)),
    ("c_maxplus_convexity_check.t", "t", -math.inf,
     lambda v: c_maxplus_convexity_check(_c, 0.2, v, 0.0, -1.0)),
    ("chebyshev_step_exact.t", "t", 0, lambda v: chebyshev_step_exact(0.5, v, 0.5, 3)),
    ("invariant_pressure_solve.lip_g", "lip_g", 0,
     lambda v: invariant_pressure_solve(FAMILY, _mass_of_one, 4, NU0, lip_g=v)),
    ("invariant_pressure_solve.eps", "eps", 0,
     lambda v: invariant_pressure_solve(FAMILY, _mass_of_one, 4, NU0, eps=v)),
    ("attractor_build.eps", "eps", 0, lambda v: attractor_build(FAMILY, 4, NU0, eps=v)),
    ("inverse_problem_solve.h", "density table", -math.inf,
     lambda v: inverse_problem_solve(np.full(2, v))),
    ("maximize_on_simplex.argmax_tol", "argmax_tol", 0,
     lambda v: maximize_on_simplex(shannon_entropy_table, SimplexGrid(2, 10), argmax_tol=v)),
    ("convex_pressure_gamma.family", "family", -math.inf,
     lambda v: convex_pressure_gamma(shannon_entropy_table, np.full((1, 2), v),
                                     SimplexGrid(2, 10))),
    ("entropy_recovery.family", "family", -math.inf,
     lambda v: entropy_recovery([0.0, 0.0], np.full((2, 2), v), [0.5, 0.5])),
    ("gibbs_solution.g", "g", -math.inf, lambda v: gibbs_solution(np.full(2, v))),
    ("log_sum_exp.g", "g", -math.inf, lambda v: log_sum_exp(np.full(2, v))),
    ("concave_envelope_1d.vals", "vals", -math.inf,
     lambda v: concave_envelope_1d([0.0, 1.0], np.full(2, v))),
    ("concave_envelope_1d.xs", "xs", -math.inf,
     lambda v: concave_envelope_1d(np.full(2, v), [0.0, 1.0])),
]
REAL_IDS = [row[0] for row in REALS]
NOT_NUMBERS = {"bool": True, "str": "0.1", "None": None, "complex": 1 + 0j}
NOT_FINITE = {"nan": math.nan, "+inf": math.inf, "-inf": -math.inf}
# eps=None is the default merge radius
NONE_ALLOWED_REALS = {"invariant_pressure_solve.eps", "attractor_build.eps"}


@pytest.mark.parametrize("name, call, value, need", [
    pytest.param(name, call, value, need, id=f"{parameter}-{kind}")
    for parameter, name, _, call in REALS
    for need, values in (("a number", NOT_NUMBERS), ("a finite number", NOT_FINITE))
    for kind, value in values.items()
    if not (value is None and parameter in NONE_ALLOWED_REALS)
])
def test_non_finite_or_non_reals_are_rejected_by_name(name, call, value, need):
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be {need}, got "):
        call(value)


@pytest.mark.parametrize("name, least, call", [
    pytest.param(name, least, call, id=parameter)
    for parameter, name, least, call in REALS if math.isfinite(least)
])
def test_reals_below_the_least_are_rejected_by_name(name, least, call):
    for below in (least - 1, -1e-300):
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must be at least {least:g}, "
                                             f"got {re.escape(repr(float(below)))}$"):
            call(below)


@pytest.mark.parametrize("kind", [np.float32, np.float64, np.int64])
@pytest.mark.parametrize("call", [row[3] for row in REALS if row[0] != "ShiftSpace.gamma"],
                         ids=[row for row in REAL_IDS if row != "ShiftSpace.gamma"])
def test_numpy_reals_are_accepted(call, kind):
    # 0 is in range everywhere but gamma's open interval
    call(kind(0))


@pytest.mark.parametrize("gamma", [np.float32(0.25), np.float64(0.25), 0.25])
def test_gamma_is_stored_as_float(gamma):
    space = ShiftSpace(np.int64(2), gamma)
    assert type(space.gamma) is float and space.gamma == float(gamma)
    assert space == ShiftSpace(2, float(gamma))


@pytest.mark.parametrize("value, expected", [
    (0.5, 0.5), (np.float32(0.5), 0.5), (np.int64(-3), -3.0), (7, 7.0), (np.array(2.5), 2.5),
])
def test_check_real_returns_a_python_float_for_a_number(value, expected):
    out = check_real("x", value)
    assert type(out) is float and out == expected


@pytest.mark.parametrize("value", [[1, 2], np.array([[0.5], [-0.5]], dtype=np.float32),
                                   np.arange(3), np.empty((0, 2))])
def test_check_real_returns_a_new_float_array_for_a_table(value):
    out = check_real("x", value)
    assert isinstance(out, np.ndarray) and out.dtype == np.float64
    assert out.shape == np.shape(value) and np.array_equal(out, value)
    assert not np.shares_memory(out, value)


@pytest.mark.parametrize("value, shown", [
    (True, "True"), (np.True_, "np.True_"), ("0.1", "'0.1'"), (None, "None"),
    (1j, "1j"), (np.nan, "nan"), (np.float32(np.inf), "inf"), (-math.inf, "-inf"),
    ([0.0, 1.0, math.nan, math.inf], "nan"), ([[0.5, None]], "[[0.5, None]]"),
    ([True, 0.5], "[True, 0.5]"), (10 ** 400, str(10 ** 400)),
])
def test_check_real_names_what_it_refuses(value, shown):
    # a number that is not finite is named by its float; anything else,
    # 10 ** 400 included, which numpy holds only as an object, is no number
    need = "a finite number" if shown in ("nan", "inf", "-inf") else "a number"
    with pytest.raises(ValueError, match=f"^x must be {need}, got {re.escape(shown)}$"):
        check_real("x", value)


def test_check_real_names_the_first_entry_below_the_least():
    with pytest.raises(ValueError, match=r"^x must be at least 0.5, got 0.25$"):
        check_real("x", [1.0, 0.25, -2.0], least=0.5)
    assert check_real("x", [0.5, 1.0], least=0.5).tolist() == [0.5, 1.0]


GRID = SimplexGrid(2, 10)
SYSTEM = MpIFSSystem([[0, 1], [1, 0]], [[0.0, -1.0], [-1.0, 0.0]])


def _zeros(make):
    """An objective giving ``make``'s table of zeros at every point."""
    return lambda pts: make(np.zeros(len(pts)))


def _zeros_after_the_lattice(make):
    """An objective giving float zeros on the lattice, its first call, and
    ``make``'s table of zeros on the refinement patches."""
    calls = []

    def objective(pts):
        calls.append(len(pts))
        return np.zeros(len(pts)) if len(calls) == 1 else make(np.zeros(len(pts)))
    return objective


# (parameter, name heading the error, call): the call builds the argument
# by passing a valid float table to its argument ``make``
NUMBERS = [
    ("MaxPlus.value", "a max-plus value", lambda make: MaxPlus(make(0.0))),
    ("check_maxplus_probability", "max-plus weights",
     lambda make: check_maxplus_probability(make([0.0, -1.0]))),
    ("pressure.density", "density values",
     lambda make: pressure(make([0.0, -1.0]), [1.0, 2.0])),
    ("pressure.g", "observables", lambda make: pressure([0.0, -1.0], make([1.0, 2.0]))),
    ("WeightedJacobianFamily.weights", "max-plus weights",
     lambda make: WeightedJacobianFamily(FAMILY.jacobians, make([0.0, -1.0]))),
    ("c_maxplus_convexity_check.alpha", "alpha",
     lambda make: c_maxplus_convexity_check(_c, -0.8, 0.3, make(0.0), -1.0)),
    ("c_maxplus_convexity_check.beta", "beta",
     lambda make: c_maxplus_convexity_check(_c, -0.8, 0.3, 0.0, make(-1.0))),
    ("CylinderMeasure.masses", "masses",
     lambda make: CylinderMeasure(SPACE, 1, make([1.0, 0.0]))),
    ("CylinderMeasure.bernoulli.probs", "masses",
     lambda make: CylinderMeasure.bernoulli(SPACE, make([1.0, 0.0]), 2)),
    ("make_bernoulli_jacobian.p", "p", lambda make: make_bernoulli_jacobian(make(1.0), SPACE)),
    ("shannon_entropy.p", "masses", lambda make: shannon_entropy(make([1.0, 0.0]))),
    ("shannon_entropy_table.points", "points",
     lambda make: shannon_entropy_table(make([[1.0, 0.0]]))),
    ("maximize_on_simplex.objective", "objective values",
     lambda make: maximize_on_simplex(_zeros(make), GRID)),
    ("maximize_on_simplex.objective-patches", "objective values",
     lambda make: maximize_on_simplex(_zeros_after_the_lattice(make), GRID)),
    ("convex_pressure_gamma.h", "objective values",
     lambda make: convex_pressure_gamma(_zeros(make), np.zeros((2, 2)), GRID)),
    ("level2_pressure.h", "density values",
     lambda make: level2_pressure(_zeros(make), _zeros(np.asarray), GRID)),
    ("entropy_recovery.gamma", "Gamma values",
     lambda make: entropy_recovery(make([0.0, 0.0]), np.zeros((2, 2)), [0.5, 0.5])),
    ("entropy_recovery.mu", "masses",
     lambda make: entropy_recovery([0.0, 0.0], np.zeros((2, 2)), make([1.0, 0.0]))),
    ("OrbitSampler.probs", "probs",
     lambda make: OrbitSampler(make([1.0, 0.0]), [[0.5, 0.5], [0.5, 0.5]], 2, 0)),
    ("OrbitSampler.transition", "transition",
     lambda make: OrbitSampler([0.5, 0.5], make([[0.0, 1.0], [1.0, 0.0]]), 2, 0)),
    ("OrbitSampler.bernoulli.probs", "probs",
     lambda make: OrbitSampler.bernoulli(make([1.0, 0.0]), 2, 0)),
    ("OrbitSampler.markov.transition", "transition",
     lambda make: OrbitSampler.markov(make([[0.0, 1.0], [1.0, 0.0]]), 2, 0)),
    ("c_n_exact.p", "p", lambda make: c_n_exact(make(0.5), 0.1, 3)),
    ("c_limit_exact.p", "p", lambda make: c_limit_exact(make(0.5), 0.1)),
    ("log_event_probability.p", "p", lambda make: log_event_probability(make(0.5), 0.5, 3)),
    ("log_event_probability.b", "b", lambda make: log_event_probability(0.5, make(0.0), 3)),
    ("bernoulli_ldp_bound.p", "p", lambda make: bernoulli_ldp_bound(make(0.5), 0.5)),
    ("bernoulli_ldp_bound.b", "b", lambda make: bernoulli_ldp_bound(0.5, make(0.5))),
    ("chebyshev_step_exact.p", "p", lambda make: chebyshev_step_exact(make(0.5), 0.1, 0.5, 3)),
    ("chebyshev_step_exact.b", "b", lambda make: chebyshev_step_exact(0.5, 0.1, make(0.0), 3)),
    ("check_ldp_worked_example.p", "p",
     lambda make: goldens.check_ldp_worked_example(p=make(0.5), n_max=1)),
    ("check_ldp_worked_example.b", "b",
     lambda make: goldens.check_ldp_worked_example(b=make(0.5), n_max=1)),
    ("MpIFSSystem.weights", "weights",
     lambda make: MpIFSSystem([[0, 1]], make([[0.0, 0.0]]))),
    ("MpIFSSystem.constant_maps.weights", "weights",
     lambda make: MpIFSSystem.constant_maps(make([[0.0, -1.0], [-1.0, 0.0]]))),
    ("mpifs_transfer.lam", "density", lambda make: mpifs_transfer(make([0.0, -1.0]), SYSTEM)),
    ("mpifs_ruelle.f", "observable", lambda make: mpifs_ruelle(make([0.0, -1.0]), SYSTEM)),
    ("mpifs_markov.lam", "density",
     lambda make: mpifs_markov(make([0.0, -1.0]), [1.0, 2.0], SYSTEM)),
    ("mpifs_markov.f", "observable",
     lambda make: mpifs_markov([0.0, -1.0], make([1.0, 2.0]), SYSTEM)),
    ("mpifs_invariance_check.lam", "density",
     lambda make: mpifs_invariance_check(make([0.0, -1.0]), SYSTEM)),
    ("mpifs_invariance_check.f_family", "the observable family",
     lambda make: mpifs_invariance_check([0.0, -1.0], SYSTEM, make([[1.0, 2.0]]))),
    ("pushforward_invariance_check.h_values", "density",
     lambda make: pushforward_invariance_check(GRID, make(np.zeros(11)), [2, 1],
                                               [lambda pts: pts[:, 0]])),
    ("w1_lp_oracle.mu", "mu",
     lambda make: w1_lp_oracle(SPACE, make([[1.0, 0.0]]), [[0.0, 1.0]])),
    ("w1_lp_oracle.nu", "nu",
     lambda make: w1_lp_oracle(SPACE, [[1.0, 0.0]], make([[0.0, 1.0]]))),
]
# whose valid values lie strictly between 0 and 1, so no integer is one
FRACTIONS = {"c_n_exact.p", "c_limit_exact.p", "log_event_probability.p",
             "bernoulli_ldp_bound.p", "bernoulli_ldp_bound.b", "chebyshev_step_exact.p",
             "check_ldp_worked_example.p", "check_ldp_worked_example.b"}
NON_NUMBERS = {"bool": True, "numpy-bool": np.True_, "str": "0.5", "None": None,
               "complex": 1j, "list-with-None": [0.5, None], "list-with-bool": [True, 0.5]}


def _filled(value):
    """A ``make`` that puts ``value`` at every entry of the table, or for a
    list, in place of the whole table."""
    if isinstance(value, list):
        return lambda table: value
    return lambda table: np.full(np.shape(table), value, dtype=object).tolist()


@pytest.mark.parametrize("name, call, value", [
    pytest.param(name, call, value, id=f"{parameter}-{kind}")
    for parameter, name, call in NUMBERS for kind, value in NON_NUMBERS.items()
])
def test_non_numbers_are_rejected_by_name(name, call, value):
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be a number, got "):
        call(_filled(value))


@pytest.mark.parametrize("call, kind", [
    pytest.param(call, kind, id=f"{parameter}-{kind.__name__}")
    for parameter, _, call in NUMBERS for kind in (np.float32, np.float64, np.int64)
    if not (kind is np.int64 and parameter in FRACTIONS)
])
def test_numpy_numbers_are_accepted(call, kind):
    call(kind)


@pytest.mark.parametrize("value", [0.5, np.float32(0.5), np.int64(-3), [1, 2],
                                   np.array([[0.5], [-0.5]], dtype=np.float32),
                                   np.arange(3), np.empty((0, 2)), [math.nan, -math.inf]],
                         ids=["float", "float32", "int64", "list", "float32-table",
                              "int-table", "empty", "non-finite"])
def test_check_numbers_returns_a_new_float_array(value):
    out = check_numbers("x", value)
    assert isinstance(out, np.ndarray) and out.dtype == np.float64
    assert out.shape == np.shape(value)
    assert np.array_equal(out, value, equal_nan=True)
    assert not np.shares_memory(out, value)


@pytest.mark.parametrize("value, shown", [
    (True, "True"), (np.True_, "np.True_"), ("0.5", "'0.5'"), (None, "None"),
    (1j, "1j"), ([0.5, None], "[0.5, None]"), (np.array(["1"]), "array(['1'], dtype='<U1')"),
    ([True, 0.5], "[True, 0.5]"), ((0.5, np.True_), "(0.5, np.True_)"),
], ids=["bool", "numpy-bool", "str", "None", "complex", "list-with-None", "str-table",
        "list-with-bool", "tuple-with-numpy-bool"])
def test_check_numbers_names_what_it_refuses(value, shown):
    with pytest.raises(ValueError, match=f"^x must be a number, got {re.escape(shown)}$"):
        check_numbers("x", value)
