"""Backend-agnostic MILP layer.

``ModelSpec`` is a plain linear-program carrier (variables, linear
constraints, objective); the default backend solves it with HiGHS through
``scipy.optimize.milp``.  The backend also provides the two diagnosis
capabilities the verification layers rely on:

* :meth:`HighsBackend.compute_iis` - an irreducible inconsistent subsystem
  via the classic deletion filter (tentatively delete each constraint; keep
  it deleted while the rest stays infeasible).  The model is assembled
  once, and a row outside a verified Farkas certificate of the rows left
  (the nonzero duals of an elastic LP) is deleted without a probe, so the
  result is the plain filter's in a fraction of the solves.  An integer
  model whose LP relaxation is feasible has no such certificate; there
  every row is probed.  No native IIS support needed.
* unbounded-ray reporting - re-solve inside a large artificial box and
  report the variables that run to the box walls.

Candidate programs print integer solver statuses following the dominant
commercial-solver convention (2 optimal, 3 infeasible, 5 unbounded,
9 time limit); :func:`status_to_code` owns that mapping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

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

# Relative gap at which HiGHS stops a MIP, for every solve.
MIP_GAP = 0.01
_RAY_BOX = 1e9
# Elastic-LP optimum and dual magnitude below which they count as zero.
_ELASTIC_TOL = 1e-9


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
        for v in self.variables:
            if math.isnan(v.lower) or math.isnan(v.upper):
                raise BackendError(f"variable {v.name} has a NaN bound")
        known = set(names)
        for c in self.constraints:
            for v, coef in c.coefficients.items():
                if v not in known:
                    raise BackendError(f"constraint {c.name} references unknown variable {v}")
                if not math.isfinite(coef):
                    raise BackendError(f"constraint {c.name} has coefficient {coef} on {v}")
            if c.sense not in ("<=", "=", ">="):
                raise BackendError(f"constraint {c.name} has invalid sense {c.sense!r}")
            if not math.isfinite(c.rhs):
                raise BackendError(f"constraint {c.name} has right-hand side {c.rhs}")
        for v, coef in self.objective.coefficients.items():
            if v not in known:
                raise BackendError(f"objective references unknown variable {v}")
            if not math.isfinite(coef):
                raise BackendError(f"objective has coefficient {coef} on {v}")
        if not math.isfinite(self.objective.constant):
            raise BackendError(f"objective has constant {self.objective.constant}")


@dataclass(frozen=True)
class SolveParams:
    time_limit_s: float = 60.0

    def __post_init__(self):
        if self.time_limit_s <= 0:
            raise BackendError("time_limit_s must be positive")


@dataclass
class SolveResult:
    status: str
    objective: float | None = None
    values: dict[str, float] = field(default_factory=dict)
    ray_vars: frozenset[str] = frozenset()
    duality_gap: float | None = None


@dataclass(frozen=True)
class _Arrays:
    """A validated ``ModelSpec`` as the arrays ``milp`` takes.

    ``a`` holds one row per constraint in model order; it is CSR so that a
    subset of rows slices cheaply.
    """

    sign: float  # -1 for a maximisation: ``c`` is always minimised
    c: np.ndarray
    integrality: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    a: sparse.csr_matrix
    lb: np.ndarray
    ub: np.ndarray

    def highs(self, c: np.ndarray, rows=None, params: SolveParams = SolveParams()):
        """HiGHS on the rows listed in ``rows`` (all rows when None)."""
        a, lb, ub = (self.a, self.lb, self.ub) if rows is None else \
            (self.a[rows], self.lb[rows], self.ub[rows])
        try:
            return milp(
                c=c,
                constraints=[LinearConstraint(a, lb, ub)] if a.shape[0] else [],
                integrality=self.integrality,
                bounds=Bounds(self.lower, self.upper),
                options={
                    "time_limit": params.time_limit_s,
                    "mip_rel_gap": MIP_GAP,
                    "disp": False,
                },
            )
        except Exception as exc:  # scipy-level failure, not model status
            raise BackendError(f"solver crashed: {exc}") from exc


def _assemble(model: ModelSpec) -> _Arrays:
    """Validate ``model`` and lay it out as arrays."""
    model.validate()
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
    # Bounds that admit no finite value of the domain would leave the model
    # infeasible with no row to blame: the IIS would be empty.
    whole = integrality > 0
    least = np.where(whole, np.ceil(lower), lower)
    most = np.where(whole, np.floor(upper), upper)
    empty = np.flatnonzero((least > most) | (least == np.inf) | (most == -np.inf))
    if len(empty):
        v = model.variables[empty[0]]
        raise BackendError(
            f"variable {v.name} has bounds [{v.lower}, {v.upper}] that admit no {v.domain} value")

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
    a = sparse.csr_matrix((vals, (rows, cols)), shape=(len(model.constraints), n))
    return _Arrays(sign, c, integrality, lower, upper, a, lb, ub)


def _farkas_rows(arr: _Arrays, rows: list[int]) -> list[int]:
    """The rows of ``rows`` with a nonzero dual in the elastic LP.

    Solves the LP relaxation of min sum(s) s.t. A x - s <= ub and
    -A x - s <= -lb over the finite sides of ``rows``, s >= 0.  When its
    optimum is positive, the rows whose dual is nonzero carry a Farkas
    certificate: on their own they are LP-infeasible.  All of ``rows`` when
    their LP relaxation is feasible or the LP fails.
    """
    sub, lb, ub = arr.a[rows], arr.lb[rows], arr.ub[rows]
    hi = np.flatnonzero(ub < np.inf)
    lo = np.flatnonzero(lb > -np.inf)
    k = len(hi) + len(lo)
    if k == 0:
        return rows
    n = sub.shape[1]
    res = linprog(
        np.r_[np.zeros(n), np.ones(k)],
        A_ub=sparse.hstack([sparse.vstack([sub[hi], -sub[lo]]), -sparse.identity(k)]),
        b_ub=np.r_[ub[hi], -lb[lo]],
        bounds=np.column_stack([np.r_[arr.lower, np.zeros(k)],
                                np.r_[arr.upper, np.full(k, np.inf)]]),
        method="highs",
    )
    if res.status != 0 or res.fun <= _ELASTIC_TOL:
        return rows
    carriers = np.r_[hi, lo][np.abs(res.ineqlin.marginals) > _ELASTIC_TOL]
    return [rows[j] for j in np.unique(carriers)]


def _ray_variables(model: ModelSpec, arr: _Arrays) -> frozenset[str]:
    """Variables driving unboundedness, found by boxing the model.

    Re-solves inside a +/-1e9 box; variables sitting on an artificial
    wall in the boxed optimum are the improving-ray carriers.
    """
    boxed = replace(arr, lower=np.maximum(arr.lower, -_RAY_BOX),
                    upper=np.minimum(arr.upper, _RAY_BOX))
    try:
        res = boxed.highs(boxed.c)
    except BackendError:
        return frozenset()
    if res.status != 0:
        return frozenset()
    hits = set()
    for i, v in enumerate(model.variables):
        if v.lower == -math.inf and res.x[i] <= -_RAY_BOX * 0.999:
            hits.add(v.name)
        if v.upper == math.inf and res.x[i] >= _RAY_BOX * 0.999:
            hits.add(v.name)
    return frozenset(hits)


class HighsBackend:
    """MILP solving via scipy's HiGHS binding.

    IIS comes from a portable deletion filter and unbounded rays from an
    artificial-box probe.  HiGHS runs single-threaded here, so repeated
    solves of one model are deterministic.
    """

    def solve(self, model: ModelSpec, params: SolveParams = SolveParams()) -> SolveResult:
        arr = _assemble(model)
        if not model.variables:
            return SolveResult(status=OPTIMAL, objective=model.objective.constant)
        res = arr.highs(arr.c, params=params)

        if res.status in (0, 1):
            status = OPTIMAL if res.status == 0 else TIME_LIMIT
            if res.x is None:  # time limit before any incumbent
                return SolveResult(status=status)
            gap = getattr(res, "mip_gap", None)
            return SolveResult(
                status=status,
                objective=arr.sign * float(res.fun) + model.objective.constant,
                values={v.name: float(res.x[i]) for i, v in enumerate(model.variables)},
                duality_gap=float(gap) if gap is not None else None,
            )
        if res.status == 2:
            return SolveResult(status=INFEASIBLE)
        if res.status == 3:
            return SolveResult(
                status=UNBOUNDED, ray_vars=_ray_variables(model, arr))
        return SolveResult(status=ERROR)

    def compute_iis(self, model: ModelSpec) -> frozenset[str]:
        """Irreducible inconsistent subsystem of an infeasible model.

        Deletion filter: walk the constraints once, tentatively deleting
        each; if the remainder is still infeasible the deletion sticks.
        The result is irreducible (removing any single member restores
        feasibility) though not necessarily minimum-cardinality.

        The model is assembled once and each probe solves a row subset.
        Most probes are skipped: an elastic LP names the rows a Farkas
        certificate needs, and once one probe confirms those rows are
        infeasible on their own, every other row is deleted unprobed (the
        rows left still hold the certificate, so the probe would have
        deleted it too).  The certificate is renewed after each deletion
        of a row it needs.  The result is the set the plain filter returns.
        When the LP relaxation is feasible (an integer conflict) or the
        certificate is not confirmed, every row is probed.
        """
        arr = _assemble(model)
        if not model.variables:
            raise NotInfeasible("model is not infeasible; no IIS exists")
        zero = np.zeros(len(model.variables))

        def infeasible(rows: list[int]) -> bool:
            return arr.highs(zero, rows).status == 2

        def needed(rows: list[int]) -> set[int]:
            carriers = _farkas_rows(arr, rows)
            if len(carriers) < len(rows) and infeasible(carriers):
                return set(carriers)
            return set(rows)

        kept = list(range(len(model.constraints)))
        need = needed(kept)
        if len(need) == len(kept) and not infeasible(kept):
            raise NotInfeasible("model is not infeasible; no IIS exists")
        i = 0
        while i < len(kept):
            trial = kept[:i] + kept[i + 1:]
            if kept[i] not in need:
                kept = trial
            elif infeasible(trial):
                kept, need = trial, needed(trial)
            else:
                i += 1
        return frozenset(model.constraints[r].name for r in kept)


DEFAULT_BACKEND = HighsBackend()
