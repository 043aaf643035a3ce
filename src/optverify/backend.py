"""Backend-agnostic MILP layer.

``ModelSpec`` is a plain linear-program carrier (variables, linear
constraints, objective); the default backend solves it with HiGHS through
``scipy.optimize.milp``.  The backend also provides the two diagnosis
capabilities the verification layers rely on:

* :meth:`HighsBackend.compute_iis` - an irreducible inconsistent subsystem
  via the classic deletion filter (tentatively delete each constraint; keep
  it deleted while the rest stays infeasible).  The probes warm-start on
  one HiGHS instance (scipy's binding), and a row outside a verified Farkas
  certificate of the rows left (HiGHS's dual ray) is deleted without a
  probe, so the result is the plain filter's in a fraction of the solves.
  An integer model whose LP relaxation is feasible has no such
  certificate; there every row is probed.  No native IIS support needed.
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
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.optimize._highspy._core import (
    HighsLp, HighsModelStatus, HighsStatus, MatrixFormat, _Highs, kSolutionStatusFeasible)

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
# Dual-ray entries below this share of the largest count as zero.
_RAY_TOL = 1e-9


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
    """A validated ``ModelSpec`` as the arrays HiGHS takes.

    ``a`` holds one row per constraint in model order, in CSR: HiGHS takes
    it row-wise as it is.
    """

    sign: float  # -1 for a maximisation: ``c`` is always minimised
    c: np.ndarray
    integrality: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    a: sparse.csr_matrix
    lb: np.ndarray
    ub: np.ndarray

    def highs(self, c: np.ndarray, params: SolveParams = SolveParams()):
        """One ``milp`` solve of the model under the objective ``c``."""
        try:
            return milp(
                c=c,
                constraints=[LinearConstraint(self.a, self.lb, self.ub)] if self.a.shape[0] else [],
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


class _Probe:
    """The model under a zero objective on one HiGHS instance, whose rows
    are deleted by freeing their bounds.  An integer model runs as a MIP, or
    as its LP relaxation for a certificate."""

    def __init__(self, arr: _Arrays):
        m, n = arr.a.shape
        lp = HighsLp()
        lp.num_col_, lp.num_row_ = n, m
        lp.col_cost_, lp.col_lower_, lp.col_upper_ = np.zeros(n), arr.lower, arr.upper
        lp.row_lower_, lp.row_upper_ = arr.lb, arr.ub
        a = lp.a_matrix_
        a.format_, a.num_col_, a.num_row_ = MatrixFormat.kRowwise, n, m
        a.start_, a.index_, a.value_ = arr.a.indptr, arr.a.indices, arr.a.data
        self.highs = _Highs()
        self.highs.setOptionValue("output_flag", False)
        if self.highs.passModel(lp) == HighsStatus.kError:
            raise BackendError("HiGHS refused the model")
        self.lb, self.ub = arr.lb, arr.ub
        self.on = np.ones(m, dtype=bool)  # rows whose bounds the instance holds
        self.whole = np.flatnonzero(arr.integrality).astype(np.int32)
        self.relaxed = True  # passed without integrality
        self.relaxation_feasible = False

    def _run(self, rows: np.ndarray, relaxed: bool) -> HighsModelStatus:
        for r in np.flatnonzero(rows != self.on):
            self.highs.changeRowBounds(int(r), *((self.lb[r], self.ub[r]) if rows[r]
                                                 else (-np.inf, np.inf)))
        self.on = rows.copy()
        if len(self.whole) and relaxed != self.relaxed:
            self.highs.changeColsIntegrality(
                len(self.whole), self.whole,
                np.full(len(self.whole), 0 if relaxed else 1, dtype=np.uint8))
            self.relaxed = relaxed
        # HiGHS's clock runs on across the instance's runs: give each its own limit.
        self.highs.setOptionValue(
            "time_limit", self.highs.getRunTime() + SolveParams().time_limit_s)
        self.highs.run()
        return self.highs.getModelStatus()

    def infeasible(self, rows: np.ndarray) -> bool:
        """Whether the rows marked in ``rows`` admit no point of the model.

        Any outcome but ``kInfeasible`` or a feasible point (a time limit,
        say) raises: read either way, it could keep a row the IIS does not
        need or drop one it does."""
        status = self._run(rows, relaxed=False)
        if status == HighsModelStatus.kInfeasible:
            return True
        if self.highs.getInfo().primal_solution_status == kSolutionStatusFeasible:
            return False
        raise BackendError(f"IIS probe ended {self.highs.modelStatusToString(status)}")

    def certificate(self, rows: np.ndarray) -> np.ndarray | None:
        """The rows of ``rows`` that carry a Farkas certificate of their LP
        relaxation: the support of HiGHS's dual ray.  None when the
        relaxation is feasible or HiGHS has no ray.

        Called right after a probe proved ``rows`` infeasible: for an LP,
        that probe's ray is read without a solve.  Rows are only ever
        deleted, so once an integer model's relaxation is feasible it stays
        so, and it is not solved again.
        """
        if self.relaxation_feasible:
            return None
        if len(self.whole):
            status = self._run(rows, relaxed=True)
            self.relaxation_feasible = status == HighsModelStatus.kOptimal
            if status != HighsModelStatus.kInfeasible:
                return None
        _, has_ray, ray = self.highs.getDualRay()
        if not has_ray:
            return None
        ray = np.abs(ray)
        return rows & (ray > _RAY_TOL * ray.max())


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

        The model is passed once to one HiGHS instance, and a probe frees
        or restores row bounds and runs again: an LP probe is a dual
        simplex warm-started from the last basis.  Most probes are skipped:
        HiGHS's dual ray on the LP relaxation names the rows a Farkas
        certificate needs, and once one probe confirms those rows are
        infeasible on their own, every other row is deleted unprobed (the
        rows left still hold the certificate, so the probe would have
        deleted it too).  The certificate is renewed after each deletion
        of a row it needs; for an LP it is the ray of the probe that just
        proved the deletion, read without a solve.  The result is the set
        the plain filter returns.  When the LP relaxation is feasible (an
        integer conflict), HiGHS has no ray or the certificate is not
        confirmed, every row is probed.  A probe that ends neither
        infeasible nor with a feasible point raises ``BackendError``.
        """
        arr = _assemble(model)
        if not model.variables:
            raise NotInfeasible("model is not infeasible; no IIS exists")
        probe = _Probe(arr)

        def needed(rows: np.ndarray) -> np.ndarray:
            carriers = probe.certificate(rows)
            if carriers is not None and carriers.sum() < rows.sum() and probe.infeasible(carriers):
                return carriers
            return rows.copy()

        kept = np.ones(len(model.constraints), dtype=bool)
        if not probe.infeasible(kept):
            raise NotInfeasible("model is not infeasible; no IIS exists")
        need = needed(kept)
        for r in range(len(kept)):
            kept[r] = False
            if not need[r]:
                continue
            if probe.infeasible(kept):
                need = needed(kept)
            else:
                kept[r] = True
        return frozenset(model.constraints[r].name for r in np.flatnonzero(kept))


DEFAULT_BACKEND = HighsBackend()
