from __future__ import annotations

import itertools
import math
import random

import pytest
from scipy.optimize._highspy._core import HighsModelStatus

from optverify import backend, generator, reference, scenario
from optverify.backend import (
    DEFAULT_BACKEND,
    Constraint,
    ModelSpec,
    Objective,
    SolveParams,
    Variable,
    status_to_code,
)
from optverify.errors import BackendError, NotInfeasible


def _model(variables, constraints, objective=None):
    return ModelSpec(
        variables=list(variables),
        constraints=list(constraints),
        objective=objective or Objective(),
    )


def test_min_with_lower_bound_constraint():
    m = _model(
        [Variable("x", lower=-math.inf)],
        [Constraint("lb", {"x": 1.0}, ">=", 3.0)],
        Objective("min", {"x": 1.0}),
    )
    res = DEFAULT_BACKEND.solve(m)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(3.0)
    assert res.values["x"] == pytest.approx(3.0)


def test_infeasible_pair():
    m = _model(
        [Variable("x", lower=-math.inf)],
        [Constraint("ge1", {"x": 1.0}, ">=", 1.0),
         Constraint("le0", {"x": 1.0}, "<=", 0.0)],
    )
    assert DEFAULT_BACKEND.solve(m).status == "infeasible"


def test_unbounded_reports_ray_variable():
    m = _model(
        [Variable("x", lower=-math.inf)],
        [],
        Objective("max", {"x": 1.0}),
    )
    res = DEFAULT_BACKEND.solve(m)
    assert res.status == "unbounded"
    assert "x" in res.ray_vars


def test_maximize_sign_handling():
    m = _model(
        [Variable("x", lower=0.0, upper=10.0)],
        [],
        Objective("max", {"x": 2.0}, constant=5.0),
    )
    res = DEFAULT_BACKEND.solve(m)
    assert res.objective == pytest.approx(25.0)


def test_integer_domain():
    m = _model(
        [Variable("n", domain="integer", lower=0.0, upper=10.0)],
        [Constraint("c", {"n": 1.0}, ">=", 2.5)],
        Objective("min", {"n": 1.0}),
    )
    res = DEFAULT_BACKEND.solve(m)
    assert res.objective == pytest.approx(3.0)


def test_solve_determinism():
    rng = random.Random(7)
    variables = [Variable(f"x{i}", lower=0.0, upper=50.0) for i in range(8)]
    constraints = [
        Constraint(
            f"c{j}",
            {f"x{i}": rng.uniform(-2, 2) for i in rng.sample(range(8), 4)},
            rng.choice(["<=", ">="]),
            rng.uniform(-5, 25),
        )
        for j in range(10)
    ]
    obj = Objective("min", {f"x{i}": rng.uniform(-1, 1) for i in range(8)})
    m = _model(variables, constraints, obj)
    first = DEFAULT_BACKEND.solve(m)
    second = DEFAULT_BACKEND.solve(m)
    assert first.status == second.status
    if first.objective is not None:
        assert abs(first.objective - second.objective) < 1e-9


def test_duplicate_variable_names_rejected():
    with pytest.raises(BackendError):
        DEFAULT_BACKEND.solve(_model(
            [Variable("x"), Variable("x")], []))


def test_unknown_variable_in_constraint_rejected():
    with pytest.raises(BackendError):
        DEFAULT_BACKEND.solve(_model(
            [Variable("x")], [Constraint("c", {"y": 1.0}, "<=", 1.0)]))


def test_bad_params_rejected():
    with pytest.raises(BackendError):
        SolveParams(time_limit_s=0)


def test_empty_model_constant_objective():
    res = DEFAULT_BACKEND.solve(ModelSpec(objective=Objective(constant=4.2)))
    assert res.status == "optimal"
    assert res.objective == pytest.approx(4.2)


def test_model_without_variables_keeps_its_rows():
    infeasible = ModelSpec(constraints=[Constraint("c", {}, "<=", -1.0)])
    assert DEFAULT_BACKEND.solve(infeasible).status == "infeasible"
    assert DEFAULT_BACKEND.compute_iis(infeasible) == {"c"}
    feasible = ModelSpec(objective=Objective(constant=4.2),
                         constraints=[Constraint("c", {}, "<=", 1.0)])
    res = DEFAULT_BACKEND.solve(feasible)
    assert (res.status, res.objective, res.values) == ("optimal", pytest.approx(4.2), {})
    with pytest.raises(NotInfeasible):
        DEFAULT_BACKEND.compute_iis(feasible)


def test_status_code_mapping():
    assert status_to_code("optimal") == 2
    assert status_to_code("infeasible") == 3
    assert status_to_code("unbounded") == 5
    assert status_to_code("time_limit") == 9


# --------------------------------------------------------------------------
# IIS
# --------------------------------------------------------------------------


def test_iis_only_conflicting_pair():
    m = _model(
        [Variable("x", lower=-math.inf)],
        [Constraint("ge1", {"x": 1.0}, ">=", 1.0),
         Constraint("le0", {"x": 1.0}, "<=", 0.0),
         Constraint("ge_m5", {"x": 1.0}, ">=", -5.0)],
    )
    assert DEFAULT_BACKEND.compute_iis(m) == {"ge1", "le0"}


def test_iis_three_way_conflict_matches_bruteforce():
    # {x+y>=10, x<=2, y<=3, x>=0}: the minimal infeasible subset is the
    # first three (2+3 < 10); verified below by exhaustive search.
    m = _model(
        [Variable("x", lower=-math.inf), Variable("y", lower=-math.inf)],
        [
            Constraint("sum_ge10", {"x": 1.0, "y": 1.0}, ">=", 10.0),
            Constraint("x_le2", {"x": 1.0}, "<=", 2.0),
            Constraint("y_le3", {"y": 1.0}, "<=", 3.0),
            Constraint("x_ge0", {"x": 1.0}, ">=", 0.0),
        ],
    )
    oracle = _min_infeasible_subsets(m)
    assert {"sum_ge10", "x_le2", "y_le3"} in oracle
    assert DEFAULT_BACKEND.compute_iis(m) == {"sum_ge10", "x_le2", "y_le3"}


def test_iis_requires_infeasible_model():
    m = _model([Variable("x")], [Constraint("c", {"x": 1.0}, ">=", 1.0)])
    with pytest.raises(NotInfeasible):
        DEFAULT_BACKEND.compute_iis(m)


def test_iis_requires_variables():
    with pytest.raises(NotInfeasible):
        DEFAULT_BACKEND.compute_iis(_model([], [Constraint("c", {}, ">=", 0.0)]))


def _feasible(model, subset):
    probe = ModelSpec(
        variables=list(model.variables),
        constraints=[c for c in model.constraints if c.name in subset],
        objective=Objective(),
    )
    return DEFAULT_BACKEND.solve(probe).status != "infeasible"


def _min_infeasible_subsets(model):
    """All minimum-cardinality infeasible subsets (exhaustive oracle)."""
    names = [c.name for c in model.constraints]
    for size in range(1, len(names) + 1):
        hits = [set(combo) for combo in itertools.combinations(names, size)
                if not _feasible(model, set(combo))]
        if hits:
            return hits
    return []


def _random_infeasible_lp(rng: random.Random):
    """Small random LP over 2 vars, resampled until infeasible."""
    while True:
        n_vars = rng.randint(1, 2)
        variables = [Variable(f"v{i}", lower=-math.inf) for i in range(n_vars)]
        constraints = []
        for j in range(rng.randint(2, 6)):
            coeffs = {
                f"v{i}": rng.choice([-2, -1, 1, 2])
                for i in rng.sample(range(n_vars), rng.randint(1, n_vars))
            }
            constraints.append(Constraint(
                f"c{j}", coeffs, rng.choice(["<=", ">="]), rng.randint(-6, 6)))
        model = _model(variables, constraints)
        if DEFAULT_BACKEND.solve(model).status == "infeasible":
            return model


def test_iis_property_random_lps():
    """Deletion-filter output is infeasible and single-deletion feasible;
    cardinality matches the brute-force minimum on most cases."""
    rng = random.Random(20240917)
    total, cardinality_matches = 0, 0
    for _ in range(25):
        model = _random_infeasible_lp(rng)
        iis = DEFAULT_BACKEND.compute_iis(model)
        total += 1
        assert not _feasible(model, iis)
        for dropped in iis:
            assert _feasible(model, iis - {dropped})
        minimum = min(len(s) for s in _min_infeasible_subsets(model))
        if len(iis) == minimum:
            cardinality_matches += 1
    assert cardinality_matches / total >= 0.9


def _deletion_filter(model):
    """The plain deletion filter, one full solve per probe (the oracle)."""
    kept = [c.name for c in model.constraints]
    i = 0
    while i < len(kept):
        trial = kept[:i] + kept[i + 1:]
        if not _feasible(model, set(trial)):
            kept = trial
        else:
            i += 1
    return frozenset(kept)


@pytest.fixture
def probes(monkeypatch):
    """Counts the deletion filter's feasibility probes."""
    count = [0]
    original = backend._Session.infeasible

    def counting(*args, **kwargs):
        count[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(backend._Session, "infeasible", counting)
    return count


def test_iis_matches_plain_deletion_filter_on_random_lps():
    rng = random.Random(1991)
    for _ in range(200):
        model = _random_infeasible_lp(rng)
        assert DEFAULT_BACKEND.compute_iis(model) == _deletion_filter(model)


def test_iis_skips_rows_outside_the_certificate(probes):
    # Three conflicting rows spread among 100 unrelated ones.
    variables = [Variable(f"x{i}", lower=-math.inf) for i in range(50)]
    constraints = [Constraint(f"box{i}", {f"x{i % 50}": 1.0}, "<=" if i < 50 else ">=",
                              10.0 + i if i < 50 else -10.0 - i) for i in range(100)]
    constraints[20:20] = [Constraint("sum_ge30", {"x3": 1.0, "x7": 1.0}, ">=", 30.0)]
    constraints[60:60] = [Constraint("x3_le5", {"x3": 1.0}, "<=", 5.0)]
    constraints.append(Constraint("x7_le5", {"x7": 1.0}, "<=", 5.0))
    model = _model(variables, constraints)
    expected = _deletion_filter(model)
    assert expected == {"sum_ge30", "x3_le5", "x7_le5"}
    probes[0] = 0
    assert DEFAULT_BACKEND.compute_iis(model) == expected
    assert probes[0] < len(constraints) / 10


def test_iis_probes_every_row_when_the_lp_relaxation_is_feasible(probes):
    # 2x = 1 has no integer solution but a fractional one, so no LP
    # certificate exists and the filter falls back to probing each row.
    variables = [Variable("x", domain="integer", lower=-10.0, upper=10.0)] + [
        Variable(f"y{i}", upper=5.0) for i in range(10)]
    constraints = [Constraint(f"y{i}_ge1", {f"y{i}": 1.0, "x": 0.5}, ">=", 1.0)
                   for i in range(10)]
    constraints.insert(4, Constraint("half", {"x": 2.0}, "=", 1.0))
    model = _model(variables, constraints)
    expected = _deletion_filter(model)
    assert expected == {"half"}
    probes[0] = 0
    assert DEFAULT_BACKEND.compute_iis(model) == expected
    assert probes[0] == len(constraints) + 1


def test_iis_certificate_of_an_integer_model_comes_from_its_lp_relaxation(probes):
    # n + m >= 7.5 against n <= 2, m <= 3 has no fractional solution either,
    # so the LP relaxation's ray names the three rows among 100 unrelated ones.
    variables = [Variable("n", "integer", 0.0, 50.0), Variable("m", "integer", 0.0, 50.0)] + [
        Variable(f"x{i}", lower=-math.inf) for i in range(50)]
    constraints = [Constraint(f"box{i}", {f"x{i % 50}": 1.0}, "<=" if i < 50 else ">=",
                              10.0 + i if i < 50 else -10.0 - i) for i in range(100)]
    constraints[30:30] = [Constraint("sum_ge", {"n": 1.0, "m": 1.0}, ">=", 7.5)]
    constraints[70:70] = [Constraint("n_le2", {"n": 1.0}, "<=", 2.0)]
    constraints.append(Constraint("m_le3", {"m": 1.0}, "<=", 3.0))
    model = _model(variables, constraints)
    expected = _deletion_filter(model)
    assert expected == {"sum_ge", "n_le2", "m_le3"}
    probes[0] = 0
    assert DEFAULT_BACKEND.compute_iis(model) == expected
    assert probes[0] < len(constraints) / 10


def test_iis_matches_plain_deletion_filter_on_a_reference_model():
    # The benchmark's smallest IIS shape: the base scenario cut to 4 periods,
    # one product and two DCs, demand scaled past production, and lost sales
    # forbidden.  189 rows, so warm starts run on a real basis.
    raw = generator.base_raw()
    dcs, products, periods = ["DC1", "DC2"], ["SKU_Basic"], 4
    keep = lambda m: {k: m[k] for k in products}  # noqa: E731
    raw.update(name="iis_shape0", periods=periods, products=products, locations=dcs)
    for key in ("shelf_life", "lead_time", "cold_usage", "labor_usage", "return_rate"):
        raw[key] = keep(raw[key])
    for key in ("purchasing", "inventory", "waste", "lost_sales"):
        raw["costs"][key] = keep(raw["costs"][key])
    raw["demand_curve"] = {p: [int(d * 3.5) for d in raw["demand_curve"][p][:periods]]
                           for p in products}
    raw["production_cap"] = {p: raw["production_cap"][p][:periods] for p in products}
    shares = [raw["demand_share"][dc] for dc in dcs]
    raw["demand_share"] = {dcs[0]: shares[0] / sum(shares), dcs[1]: shares[1] / sum(shares)}
    raw["cold_capacity"] = {dc: raw["cold_capacity"][dc] for dc in dcs}
    raw["labor_cap"] = {dc: raw["labor_cap"][dc][:periods] for dc in dcs}
    raw["network"]["sub_edges"] = []
    model = reference.build_reference_model(scenario.validate_instance(raw))
    lost = {v.name: 1.0 for v in model.variables if v.name.startswith("L[")}
    model.constraints.append(Constraint("no_lost_sales", lost, "<=", 0.0))
    assert len(model.constraints) == 189
    iis = DEFAULT_BACKEND.compute_iis(model)
    assert "no_lost_sales" in iis
    assert iis == _deletion_filter(model)


@pytest.mark.parametrize("status", [HighsModelStatus.kTimeLimit,
                                    HighsModelStatus.kUnboundedOrInfeasible])
def test_iis_probe_that_proves_neither_outcome_raises(monkeypatch, status):
    # Read as feasible, a time-limited probe would keep a row the IIS may not
    # need; read as infeasible, it would drop one it may need.
    monkeypatch.setattr(backend._Session, "run", lambda self, rows=None, relaxed=False: status)
    m = _model(
        [Variable("x", lower=-math.inf)],
        [Constraint("ge1", {"x": 1.0}, ">=", 1.0),
         Constraint("le0", {"x": 1.0}, "<=", 0.0)],
    )
    name = "Time limit reached" if status == HighsModelStatus.kTimeLimit else "unbounded"
    with pytest.raises(BackendError, match=f"IIS probe ended .*{name}"):
        DEFAULT_BACKEND.compute_iis(m)


def test_solve_and_iis_reject_non_finite_input():
    # HiGHS would drop a NaN coefficient (x + NaN*y >= 1 solved optimal) and
    # read a NaN right-hand side as a contradiction; both must be refused,
    # with the row or variable named.
    def model(coef=1.0, rhs=1.0, obj=1.0, constant=0.0, lower=0.0):
        return _model(
            [Variable("x", lower=-math.inf), Variable("y", lower=lower)],
            [Constraint("ge1", {"x": 1.0, "y": coef}, ">=", rhs),
             Constraint("le0", {"x": 1.0}, "<=", 0.0)],
            Objective("min", {"x": obj}, constant),
        )

    for bad in (math.nan, math.inf, -math.inf):
        for kwargs, named in (({"coef": bad}, "ge1"), ({"rhs": bad}, "ge1"),
                              ({"obj": bad}, "objective"), ({"constant": bad}, "objective")):
            m = model(**kwargs)
            with pytest.raises(BackendError, match=named):
                DEFAULT_BACKEND.solve(m)
            with pytest.raises(BackendError, match=named):
                DEFAULT_BACKEND.compute_iis(m)
    m = model(lower=math.nan)
    with pytest.raises(BackendError, match="variable y"):
        DEFAULT_BACKEND.solve(m)
    with pytest.raises(BackendError, match="variable y"):
        DEFAULT_BACKEND.compute_iis(m)


def test_iis_accepts_infinite_and_crossed_bounds():
    # Every bound pair that admits a finite value, infinite ones included,
    # reaches the certificate LP as input it accepts: the IIS is the plain
    # filter's.  A pair that admits none (crossed, or both on one infinity,
    # after the binary clamp to [0, 1]) is refused, with the variable named.
    values = (0.0, 1.0, -1.0, math.inf, -math.inf)
    for (lower, upper), domain in itertools.product(
            itertools.product(values, values), ("continuous", "integer", "binary")):
        m = _model(
            [Variable("x", domain, lower, upper), Variable("y", lower=-math.inf)],
            [Constraint("sum_ge1", {"x": 1.0, "y": 1.0}, ">=", 1.0),
             Constraint("y_le_m5", {"y": 1.0}, "<=", -5.0),
             Constraint("x_le0", {"x": 1.0}, "<=", 0.0)],
        )
        lo, hi = (max(lower, 0.0), min(upper, 1.0)) if domain == "binary" else (lower, upper)
        if lo <= hi and lo < math.inf and hi > -math.inf:
            assert DEFAULT_BACKEND.compute_iis(m) == _deletion_filter(m), (lower, upper, domain)
        else:
            with pytest.raises(BackendError, match="variable x "):
                DEFAULT_BACKEND.compute_iis(m)


@pytest.mark.parametrize("variable", [
    Variable("x", lower=1.0, upper=0.0),
    Variable("x", "binary", lower=-1.0, upper=-1.0),
    Variable("x", "integer", lower=0.5, upper=0.7),
], ids=["crossed", "binary_below_zero", "integer_without_integer"])
def test_bounds_that_admit_no_value_are_refused(variable):
    # Infeasible through the bounds alone, the model would get an empty IIS.
    m = _model([variable], [Constraint("x_le5", {"x": 1.0}, "<=", 5.0)])
    for call in (DEFAULT_BACKEND.solve, DEFAULT_BACKEND.compute_iis):
        with pytest.raises(BackendError, match="variable x has bounds .* admit no"):
            call(m)
