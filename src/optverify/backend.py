"""Backend-agnostic MILP layer.

``ModelSpec`` is a plain linear-program carrier (variables, linear
constraints, objective); the default backend solves it with HiGHS through
``scipy.optimize.milp``.  The backend also provides the two diagnosis
capabilities the verification layers rely on:

* :meth:`HighsBackend.compute_iis` - an irreducible inconsistent subsystem
  via the classic deletion filter (tentatively delete each constraint; keep
  it deleted while the rest stays infeasible).  Works on any backend, no
  native IIS support needed.
* unbounded-ray reporting - re-solve inside a large artificial box and
  report the variables that run to the box walls.

Candidate programs print integer solver statuses following the dominant
commercial-solver convention (2 optimal, 3 infeasible, 5 unbounded,
9 time limit); :func:`status_to_code` owns that mapping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from .errors import BackendError, NotInfeasible

CONTINUOUS = "continuous"
INTEGER = "integer"
BINARY = "binary"

MINIMIZE = "min"
MAXIMIZE = "max"

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
TIME_LIMIT = "time_limit"
ERROR = "error"

# Candidate output contract: integer codes printed on the `status:` line.
_STATUS_CODES = {OPTIMAL: 2, INFEASIBLE: 3, UNBOUNDED: 5, TIME_LIMIT: 9, ERROR: 12}
_CODE_STATUS = {v: k for k, v in _STATUS_CODES.items()}

_RAY_BOX = 1e9


def status_to_code(status: str) -> int:
    return _STATUS_CODES[status]


def code_to_status(code: int) -> str | None:
    return _CODE_STATUS.get(code)


@dataclass(frozen=True)
class Variable:
    name: str
    domain: str = CONTINUOUS
    lower: float = 0.0
    upper: float = math.inf


@dataclass(frozen=True)
class Constraint:
    name: str
    coefficients: dict[str, float]
    sense: str  # "<=", "=", ">="
    rhs: float


@dataclass(frozen=True)
class Objective:
    sense: str = MINIMIZE
    coefficients: dict[str, float] = field(default_factory=dict)
    constant: float = 0.0


@dataclass
class ModelSpec:
    variables: list[Variable] = field(default_factory=list)
    constraints: list[Constraint] = field(default_factory=list)
    objective: Objective = field(default_factory=Objective)

    def validate(self) -> None:
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise BackendError("duplicate variable names in model")
        cnames = [c.name for c in self.constraints]
        if len(set(cnames)) != len(cnames):
            raise BackendError("duplicate constraint names in model")
        known = set(names)
        for c in self.constraints:
            for v in c.coefficients:
                if v not in known:
                    raise BackendError(f"constraint {c.name} references unknown variable {v}")
            if c.sense not in ("<=", "=", ">="):
                raise BackendError(f"constraint {c.name} has invalid sense {c.sense!r}")
        for v in self.objective.coefficients:
            if v not in known:
                raise BackendError(f"objective references unknown variable {v}")


@dataclass(frozen=True)
class SolveParams:
    time_limit_s: float = 60.0
    mip_gap: float = 0.01

    def __post_init__(self):
        if self.time_limit_s <= 0:
            raise BackendError("time_limit_s must be positive")
        if not 0 <= self.mip_gap < 1:
            raise BackendError("mip_gap must be in [0, 1)")


@dataclass
class SolveResult:
    status: str
    objective: float | None = None
    values: dict[str, float] = field(default_factory=dict)
    ray_vars: frozenset[str] = frozenset()
    duality_gap: float | None = None


class HighsBackend:
    """MILP solving via scipy's HiGHS binding.

    IIS comes from a portable deletion filter and unbounded rays from an
    artificial-box probe.  HiGHS runs single-threaded here, so repeated
    solves of one model are deterministic.
    """

    def solve(self, model: ModelSpec, params: SolveParams = SolveParams()) -> SolveResult:
        model.validate()
        if not model.variables:
            return SolveResult(status=OPTIMAL, objective=model.objective.constant)

        index = {v.name: i for i, v in enumerate(model.variables)}
        n = len(model.variables)
        sign = -1.0 if model.objective.sense == MAXIMIZE else 1.0
        c = np.zeros(n)
        for vname, coef in model.objective.coefficients.items():
            c[index[vname]] = sign * coef

        integrality = np.zeros(n)
        lower = np.empty(n)
        upper = np.empty(n)
        for i, v in enumerate(model.variables):
            lo, hi = v.lower, v.upper
            if v.domain == BINARY:
                integrality[i] = 1
                lo, hi = max(lo, 0.0), min(hi, 1.0)
            elif v.domain == INTEGER:
                integrality[i] = 1
            elif v.domain != CONTINUOUS:
                raise BackendError(f"unknown variable domain {v.domain!r}")
            lower[i], upper[i] = lo, hi

        constraints = []
        if model.constraints:
            rows, cols, vals = [], [], []
            lb = np.empty(len(model.constraints))
            ub = np.empty(len(model.constraints))
            for r, cons in enumerate(model.constraints):
                for vname, coef in cons.coefficients.items():
                    rows.append(r)
                    cols.append(index[vname])
                    vals.append(coef)
                if cons.sense == "<=":
                    lb[r], ub[r] = -np.inf, cons.rhs
                elif cons.sense == ">=":
                    lb[r], ub[r] = cons.rhs, np.inf
                else:
                    lb[r], ub[r] = cons.rhs, cons.rhs
            a = sparse.csc_matrix(
                (vals, (rows, cols)), shape=(len(model.constraints), n))
            constraints = [LinearConstraint(a, lb, ub)]

        options = {
            "time_limit": params.time_limit_s,
            "mip_rel_gap": params.mip_gap,
            "disp": False,
        }
        try:
            res = milp(
                c=c,
                constraints=constraints,
                integrality=integrality,
                bounds=Bounds(lower, upper),
                options=options,
            )
        except Exception as exc:  # scipy-level failure, not model status
            raise BackendError(f"solver crashed: {exc}") from exc

        if res.status in (0, 1):
            status = OPTIMAL if res.status == 0 else TIME_LIMIT
            if res.x is None:  # time limit before any incumbent
                return SolveResult(status=status)
            gap = getattr(res, "mip_gap", None)
            return SolveResult(
                status=status,
                objective=sign * float(res.fun) + model.objective.constant,
                values={v.name: float(res.x[i]) for i, v in enumerate(model.variables)},
                duality_gap=float(gap) if gap is not None else None,
            )
        if res.status == 2:
            return SolveResult(status=INFEASIBLE)
        if res.status == 3:
            return SolveResult(
                status=UNBOUNDED, ray_vars=self._ray_variables(model))
        return SolveResult(status=ERROR)

    def _ray_variables(self, model: ModelSpec) -> frozenset[str]:
        """Variables driving unboundedness, found by boxing the model.

        Re-solves inside a +/-1e9 box; variables sitting on an artificial
        wall in the boxed optimum are the improving-ray carriers.
        """
        boxed = ModelSpec(
            variables=[
                Variable(v.name, v.domain,
                         max(v.lower, -_RAY_BOX), min(v.upper, _RAY_BOX))
                for v in model.variables
            ],
            constraints=list(model.constraints),
            objective=model.objective,
        )
        try:
            res = self.solve(boxed)
        except BackendError:
            return frozenset()
        if res.status != OPTIMAL:
            return frozenset()
        hits = set()
        for v, orig in zip(boxed.variables, model.variables):
            x = res.values[v.name]
            if orig.lower == -math.inf and x <= -_RAY_BOX * 0.999:
                hits.add(v.name)
            if orig.upper == math.inf and x >= _RAY_BOX * 0.999:
                hits.add(v.name)
        return frozenset(hits)

    def _is_feasible(self, model: ModelSpec, constraints: list[Constraint]) -> bool:
        probe = ModelSpec(
            variables=list(model.variables),
            constraints=constraints,
            objective=Objective(),  # feasibility only
        )
        return self.solve(probe).status != INFEASIBLE

    def compute_iis(self, model: ModelSpec) -> frozenset[str]:
        """Irreducible inconsistent subsystem of an infeasible model.

        Deletion filter: walk the constraints once, tentatively deleting
        each; if the remainder is still infeasible the deletion sticks.
        The result is irreducible (removing any single member restores
        feasibility) though not necessarily minimum-cardinality.
        """
        if self._is_feasible(model, list(model.constraints)):
            raise NotInfeasible("model is not infeasible; no IIS exists")
        kept = list(model.constraints)
        i = 0
        while i < len(kept):
            trial = kept[:i] + kept[i + 1:]
            if not self._is_feasible(model, trial):
                kept = trial
            else:
                i += 1
        return frozenset(c.name for c in kept)


DEFAULT_BACKEND = HighsBackend()
