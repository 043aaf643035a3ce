"""``HighsBackend.solve`` against scipy's ``milp`` on ``_assemble``'s arrays.

``milp`` passes the model to HiGHS through scipy's own wrapper, column-wise,
with its own options and status codes; the backend's session passes it
row-wise.  Both must give the same status, objective, point, gap and ray
variables on every model HiGHS takes.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

from optverify.backend import (
    DEFAULT_BACKEND, MIP_GAP, Constraint, ModelSpec, Objective, Variable, _assemble)
from optverify.errors import BackendError

# scipy's ``milp`` status codes; 4 (any other HiGHS status) is an error.
_SCIPY_STATUSES = {0: "optimal", 1: "time_limit", 2: "infeasible", 3: "unbounded"}
_BOX = 1e9


def _milp(arr, lower, upper):
    return milp(c=arr.c, integrality=arr.integrality, bounds=Bounds(lower, upper),
                constraints=[LinearConstraint(arr.a, arr.lb, arr.ub)] if arr.a.shape[0] else [],
                options={"time_limit": 60.0, "mip_rel_gap": MIP_GAP, "disp": False})


def _reference(model: ModelSpec):
    """(status, objective, values, gap, ray variables) as scipy's ``milp`` gives them."""
    arr = _assemble(model)
    res = _milp(arr, arr.lower, arr.upper)
    status = _SCIPY_STATUSES.get(res.status, "error")
    if res.x is not None and status in ("optimal", "time_limit"):
        gap = res.get("mip_gap")
        return (status, arr.sign * float(res.fun) + model.objective.constant,
                dict(zip(arr.names, res.x.tolist())), None if gap is None else float(gap),
                frozenset())
    ray = frozenset()
    if status == "unbounded":
        boxed = _milp(arr, np.maximum(arr.lower, -_BOX), np.minimum(arr.upper, _BOX))
        if boxed.status == 0:
            ray = frozenset(name for name, lo, hi, x in zip(arr.names, arr.lower, arr.upper, boxed.x)
                            if lo == -math.inf and x <= -_BOX * 0.999
                            or hi == math.inf and x >= _BOX * 0.999)
    return status, None, {}, None, ray


def _bounds(rng: random.Random, domain: str) -> tuple[float, float]:
    """Bounds that admit a value of ``domain``, infinite ones included."""
    while True:
        lower = rng.choice([-math.inf, -math.inf, -1.5, 0.0, 0.0, 1.0])
        upper = rng.choice([math.inf, math.inf, math.inf, 0.0, 2.5, 4.0])
        if domain == "binary":
            lo, hi = max(lower, 0.0), min(upper, 1.0)
        else:
            lo, hi = lower, upper
        if domain != "continuous":
            lo, hi = np.ceil(lo), np.floor(hi)
        if lo <= hi:
            return lower, upper


def _random_model(rng: random.Random) -> ModelSpec:
    names = [f"x{i}" for i in range(rng.randint(1, 5))]
    variables = []
    for name in names:
        domain = rng.choice(["continuous", "continuous", "integer", "binary"])
        variables.append(Variable(name, domain, *_bounds(rng, domain)))
    constraints = []
    for r in range(rng.randint(0, 3)):
        terms = {v: float(rng.randint(-3, 3)) for v in rng.sample(names, rng.randint(0, len(names)))}
        constraints.append(Constraint(f"c{r}", terms, rng.choice(["<=", "<=", ">=", "="]),
                                      float(rng.randint(-6, 6))))
    costs = {v: rng.choice([-2.0, -1.0, 0.5, 1.0, 3.0])
             for v in rng.sample(names, rng.randint(0, len(names)))}
    objective = Objective(rng.choice(["min", "max"]), costs, rng.choice([0.0, 2.5, -7.0]))
    return ModelSpec(variables, constraints, objective)


def test_solve_matches_scipy_milp_on_random_models():
    rng = random.Random(2017)
    seen = set()
    for _ in range(300):
        model = _random_model(rng)
        status, objective, values, gap, ray = _reference(model)
        got = DEFAULT_BACKEND.solve(model)
        assert got.status == status, model
        if objective is None:
            assert got.objective is None, model
        else:
            assert math.isclose(got.objective, objective, rel_tol=1e-9, abs_tol=1e-12), model
        assert got.values == values, model
        assert got.duality_gap == gap, model
        assert got.ray_vars == ray, model
        seen.add(status)
        if status == "unbounded" and ray:
            seen.add("unbounded with a ray")
    assert seen >= {"optimal", "infeasible", "unbounded", "unbounded with a ray", "error"}


def test_solve_refuses_what_highs_refuses():
    # HiGHS will not take a coefficient of 1e15 or more.  scipy's wrapper
    # reports that as HiGHS's model error and ``milp`` calls it infeasible;
    # the backend refuses such a model before HiGHS sees it, naming the row.
    def model(coefficient):
        return ModelSpec([Variable("x")], [Constraint("big", {"x": coefficient}, ">=", 1.0)],
                         Objective("min", {"x": 1.0}))

    arr = _assemble(model(1.0))
    for coefficient in (1e15, 1e16):
        scaled = replace(arr, a=arr.a * coefficient)
        assert "Model error" in _milp(scaled, arr.lower, arr.upper).message
        named = re.escape(f"constraint big has coefficient {coefficient} on x")
        for call in (DEFAULT_BACKEND.solve, DEFAULT_BACKEND.compute_iis):
            with pytest.raises(BackendError, match=named):
                call(model(coefficient))
    assert _milp(replace(arr, a=arr.a * 9.9e14), arr.lower, arr.upper).status == 0
    assert DEFAULT_BACKEND.solve(model(9.9e14)).status == "optimal"
