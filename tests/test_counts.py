"""Every integer argument goes through ``shift.check_count``: sizes, depths,
word and orbit lengths, window and trial counts, and seeds."""

import re

import numpy as np
import pytest

from maxtherm import cli, goldens
from maxtherm.dynamics import (
    OrbitSampler,
    birkhoff_limit_test,
    birkhoff_max_table,
    c_n_exact,
    chebyshev_step_exact,
    log_event_probability,
    partition_function_mc,
)
from maxtherm.ifs import WeightedJacobianFamily, attractor_build, invariant_pressure_solve
from maxtherm.shift import (
    CylinderMeasure,
    DepthKFunction,
    Jacobian,
    ShiftSpace,
    check_count,
    make_bernoulli_jacobian,
    symbol_table,
    word_index,
)
from maxtherm.simplex import (
    SimplexGrid,
    affine_observable_family,
    pressure_axioms_check,
    shannon_entropy_table,
)
from maxtherm.transport import distance_matrix

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
