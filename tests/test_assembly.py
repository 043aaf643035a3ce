"""``backend._assemble`` against a per-nonzero reference assembly, and the
message each refused model gets."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from optverify.backend import Constraint, ModelSpec, Objective, Variable, _assemble
from optverify.errors import BackendError

_DOMAINS = ("continuous", "integer", "binary")
_SENSES = ("<=", "=", ">=")


def _naive(model: ModelSpec):
    """The model's arrays, built one variable, row and nonzero at a time."""
    index = {v.name: i for i, v in enumerate(model.variables)}
    sign = -1.0 if model.objective.sense == "max" else 1.0
    c = [0.0] * len(index)
    for name, coef in model.objective.coefficients.items():
        c[index[name]] = sign * coef
    integrality, lower, upper = [], [], []
    for v in model.variables:
        lo, hi = v.lower, v.upper
        if v.domain == "binary":
            lo, hi = max(lo, 0.0), min(hi, 1.0)
        integrality.append(0.0 if v.domain == "continuous" else 1.0)
        lower.append(lo)
        upper.append(hi)
    rows, cols, vals, lb, ub = [], [], [], [], []
    for r, con in enumerate(model.constraints):
        for name, coef in con.coefficients.items():
            rows.append(r)
            cols.append(index[name])
            vals.append(coef)
        lb.append(-math.inf if con.sense == "<=" else con.rhs)
        ub.append(math.inf if con.sense == ">=" else con.rhs)
    a = sparse.coo_matrix((np.array(vals, dtype=float), (rows, cols)),
                          shape=(len(model.constraints), len(index))).tocsr()
    return sign, c, integrality, lower, upper, a, lb, ub


def _first_fault(model: ModelSpec) -> str | None:
    """The message of the first fault, checked one item at a time in the
    order the backend reports them."""
    names = [v.name for v in model.variables]
    if len(set(names)) != len(names):
        return "duplicate variable names in model"
    cnames = [c.name for c in model.constraints]
    if len(set(cnames)) != len(cnames):
        return "duplicate constraint names in model"
    for v in model.variables:
        if math.isnan(v.lower) or math.isnan(v.upper):
            return f"variable {v.name} has a NaN bound"
    for c in model.constraints:
        for name, coef in c.coefficients.items():
            if name not in names:
                return f"constraint {c.name} references unknown variable {name}"
            if not math.isfinite(coef):
                return f"constraint {c.name} has coefficient {coef} on {name}"
        if c.sense not in _SENSES:
            return f"constraint {c.name} has invalid sense {c.sense!r}"
        if not math.isfinite(c.rhs):
            return f"constraint {c.name} has right-hand side {c.rhs}"
    for name, coef in model.objective.coefficients.items():
        if name not in names:
            return f"objective references unknown variable {name}"
        if not math.isfinite(coef):
            return f"objective has coefficient {coef} on {name}"
    if not math.isfinite(model.objective.constant):
        return f"objective has constant {model.objective.constant}"
    for v in model.variables:
        if v.domain not in _DOMAINS:
            return f"unknown variable domain {v.domain!r}"
    for v in model.variables:
        lo, hi = v.lower, v.upper
        if v.domain == "binary":
            lo, hi = max(lo, 0.0), min(hi, 1.0)
        if v.domain != "continuous":
            lo, hi = math.ceil(lo) if math.isfinite(lo) else lo, math.floor(hi) if math.isfinite(hi) else hi
        if lo > hi or lo == math.inf or hi == -math.inf:
            return f"variable {v.name} has bounds [{v.lower}, {v.upper}] that admit no {v.domain} value"
    return None


_finite = st.floats(-50, 50, allow_nan=False).map(lambda x: round(x, 3))


@st.composite
def _variable(draw, name):
    # Bounds around an anchor value of the domain, so every variable admits one.
    domain = draw(st.sampled_from(_DOMAINS))
    anchor = float(draw(st.integers(0, 1) if domain == "binary" else st.integers(-3, 3)))
    lower = draw(st.sampled_from((-math.inf, anchor, anchor - 0.5, anchor - 2.0)))
    upper = draw(st.sampled_from((math.inf, anchor, anchor + 0.5, anchor + 3.0)))
    return Variable(name, domain, lower, upper)


@st.composite
def _models(draw, max_vars=6, max_rows=5):
    n = draw(st.integers(0, max_vars))
    names = [f"x{i}" for i in range(n)]
    variables = [draw(_variable(name)) for name in names]
    # Terms in a random order, some of them explicit zeros; rows may be empty.
    terms = st.lists(st.sampled_from(names), unique=True) if names else st.just([])
    constraints = []
    for r in range(draw(st.integers(0, max_rows))):
        keys = draw(terms)
        constraints.append(Constraint(
            f"r{r}", {k: draw(_finite | st.just(0.0)) for k in keys},
            draw(st.sampled_from(_SENSES)), draw(_finite)))
    objective = Objective(draw(st.sampled_from(("min", "max"))),
                          {k: draw(_finite) for k in draw(terms)}, draw(_finite))
    return ModelSpec(variables, constraints, objective)


@settings(max_examples=300, deadline=None)
@given(_models())
def test_assembly_matches_a_per_nonzero_reference(model):
    arr = _assemble(model)
    sign, c, integrality, lower, upper, a, lb, ub = _naive(model)
    assert arr.sign == sign
    for got, want in ((arr.c, c), (arr.integrality, integrality), (arr.lower, lower),
                      (arr.upper, upper), (arr.lb, lb), (arr.ub, ub)):
        assert got.dtype == np.float64
        assert np.array_equal(got, np.array(want, dtype=float))
    assert arr.a.shape == a.shape
    assert arr.a.has_sorted_indices
    for got, want in ((arr.a.indptr, a.indptr), (arr.a.indices, a.indices),
                      (arr.a.data, a.data)):
        assert np.array_equal(got, want)


def test_assembly_of_a_model_without_rows_or_variables():
    arr = _assemble(ModelSpec(objective=Objective(constant=2.0)))
    assert arr.a.shape == (0, 0) and len(arr.c) == 0 and len(arr.lb) == 0
    arr = _assemble(ModelSpec([Variable("x", "binary", -math.inf, math.inf)], []))
    assert arr.a.shape == (0, 1)
    assert (arr.lower[0], arr.upper[0], arr.integrality[0]) == (0.0, 1.0, 1.0)


_FAULTS = {
    "duplicate_variable": "duplicate variable names in model",
    "duplicate_constraint": "duplicate constraint names in model",
    "nan_bound": "variable y has a NaN bound",
    "unknown_variable": "constraint c2 references unknown variable q",
    "nan_coefficient": "constraint c2 has coefficient nan on y",
    "infinite_coefficient": "constraint c2 has coefficient -inf on y",
    "invalid_sense": "constraint c2 has invalid sense '=<'",
    "infinite_rhs": "constraint c2 has right-hand side inf",
    "objective_unknown_variable": "objective references unknown variable q",
    "objective_coefficient": "objective has coefficient nan on x",
    "objective_constant": "objective has constant -inf",
    "unknown_domain": "unknown variable domain 'real'",
    "empty_bounds": "variable y has bounds [2.0, 1.0] that admit no continuous value",
    "integer_without_integer": "variable z has bounds [0.25, 0.75] that admit no integer value",
}


def _faulty(*faults: str) -> ModelSpec:
    """A valid three-variable, three-row model with ``faults`` put in."""
    on = set(faults).__contains__
    variables = [Variable("x", lower=-math.inf),
                 Variable("y", "real" if on("unknown_domain") else "continuous",
                          math.nan if on("nan_bound") else 2.0 if on("empty_bounds") else 0.0,
                          1.0 if on("empty_bounds") else math.inf),
                 Variable("z", "integer", 0.25 if on("integer_without_integer") else 0.0,
                          0.75 if on("integer_without_integer") else 4.0)]
    if on("duplicate_variable"):
        variables.append(Variable("x"))
    c2 = {"x": 1.0, "y": math.nan if on("nan_coefficient")
          else -math.inf if on("infinite_coefficient") else 2.0}
    if on("unknown_variable"):
        c2["q"] = 1.0
    constraints = [Constraint("c1", {"x": 1.0, "z": 1.0}, ">=", 1.0),
                   Constraint("c2", c2, "=<" if on("invalid_sense") else "<=",
                              math.inf if on("infinite_rhs") else 8.0),
                   Constraint("c1" if on("duplicate_constraint") else "c3", {}, "=", 0.0)]
    obj = {"x": math.nan if on("objective_coefficient") else 1.0, "z": -1.0}
    if on("objective_unknown_variable"):
        obj["q"] = 2.0
    return ModelSpec(variables, constraints, Objective(
        "max", obj, -math.inf if on("objective_constant") else 0.5))


def _refusal(model: ModelSpec) -> str:
    with pytest.raises(BackendError) as exc:
        _assemble(model)
    return str(exc.value)


@pytest.mark.parametrize("fault", sorted(_FAULTS))
def test_each_fault_is_refused_with_its_message(fault):
    model = _faulty(fault)
    assert _refusal(model) == _FAULTS[fault] == _first_fault(model)


# Pairs of faults: the message names the one reported first.
@pytest.mark.parametrize("faults,message", [
    (("infinite_rhs", "unknown_variable"), "constraint c2 references unknown variable q"),
    (("invalid_sense", "nan_coefficient"), "constraint c2 has coefficient nan on y"),
    (("infinite_rhs", "invalid_sense"), "constraint c2 has invalid sense '=<'"),
    (("nan_bound", "duplicate_constraint"), "duplicate constraint names in model"),
    (("objective_constant", "objective_unknown_variable"), "objective references unknown variable q"),
    (("unknown_domain", "objective_coefficient"), "objective has coefficient nan on x"),
    (("empty_bounds", "unknown_domain"), "unknown variable domain 'real'"),
    (("integer_without_integer", "nan_bound"), "variable y has a NaN bound"),
])
def test_two_faults_name_the_first(faults, message):
    model = _faulty(*faults)
    assert _refusal(model) == message == _first_fault(model)


_poison = st.sampled_from((math.nan, math.inf, -math.inf))


@st.composite
def _faulty_models(draw):
    """A random model with a few random faults put in."""
    model = draw(_models(max_vars=4, max_rows=4))
    variables, constraints = list(model.variables), list(model.constraints)
    coefficients = dict(model.objective.coefficients)
    constant = model.objective.constant
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from((
            "variable", "constraint", "nan_bound", "domain", "bounds",
            "coefficient", "unknown", "sense", "rhs", "objective", "constant")))
        if kind in ("variable", "nan_bound", "domain", "bounds") and variables:
            i = draw(st.integers(0, len(variables) - 1))
            v = variables[i]
            if kind == "variable":
                variables.append(v)
            elif kind == "nan_bound":
                variables[i] = Variable(v.name, v.domain, v.lower, math.nan)
            elif kind == "domain":
                variables[i] = Variable(v.name, "real", v.lower, v.upper)
            else:
                variables[i] = Variable(v.name, v.domain, 5.5, 5.25)
        elif kind in ("constraint", "coefficient", "unknown", "sense", "rhs") and constraints:
            r = draw(st.integers(0, len(constraints) - 1))
            con = constraints[r]
            coefs = dict(con.coefficients)
            if kind == "coefficient" and coefs:
                coefs[draw(st.sampled_from(sorted(coefs)))] = draw(_poison)
            elif kind == "unknown":
                coefs["ghost"] = 1.0
            constraints[r] = Constraint(
                con.name, coefs, "==" if kind == "sense" else con.sense,
                draw(_poison) if kind == "rhs" else con.rhs)
            if kind == "constraint":
                constraints.append(con)
        elif kind == "objective":
            coefficients[draw(st.sampled_from(sorted(coefficients) + ["ghost"]))] = draw(_poison)
        elif kind == "constant":
            constant = draw(_poison)
    return ModelSpec(variables, constraints,
                     Objective(model.objective.sense, coefficients, constant))


@settings(max_examples=300, deadline=None)
@given(_faulty_models())
def test_random_faults_are_refused_in_order(model):
    expected = _first_fault(model)
    if expected is None:
        _assemble(model)
    else:
        assert _refusal(model) == expected
