"""Backend-agnostic MILP layer.

``ModelSpec`` is a plain linear-program carrier (variables, linear
constraints, objective).  The model is checked where it is laid out as
arrays, in ``_assemble``: one whole-array pass per field, and a model with
a fault (a duplicate name, an unknown variable, a non-finite number, one
too large for HiGHS or a coefficient so small that HiGHS drops it, a bad
sense or domain, bounds that admit no value) is refused with a
``BackendError`` naming the first one.  Every HiGHS run goes through
``_Session``, which passes the arrays once to HiGHS (the binding scipy
ships).  The backend also provides the two diagnosis capabilities the
verification layers rely on:

* :meth:`HighsBackend.compute_iis` - an irreducible inconsistent subsystem
  via the classic deletion filter (tentatively delete each constraint; keep
  it deleted while the rest stays infeasible).  The probes warm-start on
  one session, and a row outside a verified Farkas certificate of the rows
  left (HiGHS's dual ray) is deleted without a probe, so the result is the
  plain filter's in a fraction of the solves.  An integer model whose LP
  relaxation is feasible has no such certificate; there every row is
  probed.  No native IIS support needed.
* unbounded-ray reporting - re-solve inside a large artificial box and
  report the variables that run to the box walls.

Candidate programs print integer solver statuses following the dominant
commercial-solver convention (2 optimal, 3 infeasible, 5 unbounded,
9 time limit); :func:`status_to_code` owns that mapping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import chain, repeat
from operator import attrgetter, methodcaller
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.optimize._highspy._core import (
    HighsLp, HighsModelStatus, HighsStatus, MatrixFormat, _Highs, kHighsInf, kSolutionStatusFeasible)

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

# HiGHS's model statuses as solve reports them; any other is an error.
_MODEL_STATUSES = {
    HighsModelStatus.kOptimal: OPTIMAL, HighsModelStatus.kTimeLimit: TIME_LIMIT,
    HighsModelStatus.kIterationLimit: TIME_LIMIT, HighsModelStatus.kInfeasible: INFEASIBLE,
    HighsModelStatus.kUnbounded: UNBOUNDED}

# Relative gap at which HiGHS stops a MIP, for every solve.
MIP_GAP = 0.01
_RAY_BOX = 1e9
# Dual-ray entries below this share of the largest count as zero.
_RAY_TOL = 1e-9

# HiGHS reads a bound, right-hand side or cost this large in size as
# infinite, refuses a matrix coefficient as large as the second, and drops
# one no larger than the third without a word.
_HIGHS_INF = 1e20
_MAX_COEFFICIENT = 1e15
_MIN_COEFFICIENT = 1e-9


def _bad_coefficient(size):
    """Whether a matrix coefficient of this size is one HiGHS cannot take as
    stated; exact zeros are legal.  Works on a float and on an array."""
    return np.logical_not(size < _MAX_COEFFICIENT) | ((size > 0) & (size <= _MIN_COEFFICIENT))

# The codes ``_assemble`` reads domains and senses as.
_DOMAINS = {CONTINUOUS: 0, INTEGER: 1, BINARY: 2}
_SENSES = {"<=": 0, "=": 1, ">=": 2}


def status_to_code(status: str) -> int:
    return _STATUS_CODES[status]


class Variable(NamedTuple):
    name: str
    domain: str = CONTINUOUS
    lower: float = 0.0
    upper: float = math.inf


class Constraint(NamedTuple):
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
    """A model as the caller wrote it; ``HighsBackend`` checks it when it
    lays it out (see ``_assemble``)."""

    variables: list[Variable] = field(default_factory=list)
    constraints: list[Constraint] = field(default_factory=list)
    objective: Objective = field(default_factory=Objective)


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
    """A checked ``ModelSpec`` as the arrays HiGHS takes.

    ``a`` holds one row per constraint in model order, in CSR with sorted
    column indices: HiGHS takes it row-wise as it is.
    """

    names: tuple[str, ...]  # of the columns, in model order
    sign: float  # -1 for a maximisation: ``c`` is always minimised
    c: np.ndarray
    integrality: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    a: sparse.csr_matrix
    lb: np.ndarray
    ub: np.ndarray


def _codes(table: dict[str, int], keys, count: int) -> np.ndarray:
    """``table``'s code of each key, -1 for a key it lacks."""
    return np.fromiter(map(table.get, keys, repeat(-1)), dtype=np.int8, count=count)


def _infinite(x: np.ndarray) -> np.ndarray:
    """``x`` with each value HiGHS reads as infinite made so, in place."""
    big = np.abs(x) >= _HIGHS_INF
    x[big] = np.copysign(np.inf, x[big])
    return x


def _row_fault(con: Constraint, index: dict[str, int]) -> str:
    """The message naming the first fault of a row that has one."""
    for v, coef in con.coefficients.items():
        if v not in index:
            return f"constraint {con.name} references unknown variable {v}"
        if _bad_coefficient(abs(coef)):
            return f"constraint {con.name} has coefficient {coef} on {v}"
    if con.sense not in _SENSES:
        return f"constraint {con.name} has invalid sense {con.sense!r}"
    return f"constraint {con.name} has right-hand side {con.rhs}"


def _assemble(model: ModelSpec) -> _Arrays:
    """Check ``model`` and lay it out as arrays, one whole-array pass per field.

    A refused model raises ``BackendError`` naming its first fault, looked
    for in this order: duplicate variable or constraint names, NaN bounds,
    each row's terms (an unknown variable, a coefficient that is not finite,
    is 1e15 or more in size or is nonzero and 1e-9 or less), sense and
    right-hand side, the objective's terms (not finite, or 1e20 or more in
    size) and constant, unknown domains, and bounds that admit no value of
    their domain.  Infinite and crossed bounds that admit one are legal.

    A finite bound or right-hand side of 1e20 or more in size is read as
    the infinity HiGHS takes it for: no limit on its own side (gurobipy's
    ``GRB.INFINITY`` is 1e100), and refused on the other, where it admits
    no value.
    """
    variables, rows = model.variables, model.constraints
    n, m = len(variables), len(rows)
    names = tuple(map(attrgetter("name"), variables))
    index = dict(zip(names, range(n)))
    if len(index) != n:
        raise BackendError("duplicate variable names in model")
    if len(set(map(attrgetter("name"), rows))) != m:
        raise BackendError("duplicate constraint names in model")
    lower = _infinite(np.fromiter(map(attrgetter("lower"), variables), dtype=float, count=n))
    upper = _infinite(np.fromiter(map(attrgetter("upper"), variables), dtype=float, count=n))
    nan = np.isnan(lower) | np.isnan(upper)
    if nan.any():
        raise BackendError(f"variable {names[nan.argmax()]} has a NaN bound")

    terms = list(map(attrgetter("coefficients"), rows))
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, terms), dtype=np.int64, count=m), out=indptr[1:])
    nnz = int(indptr[-1])
    cols = np.fromiter(map(index.get, chain.from_iterable(terms), repeat(-1)),
                       dtype=np.int64, count=nnz)
    vals = np.fromiter(chain.from_iterable(map(methodcaller("values"), terms)),
                       dtype=float, count=nnz)
    sense = _codes(_SENSES, map(attrgetter("sense"), rows), m)
    rhs = np.fromiter(map(attrgetter("rhs"), rows), dtype=float, count=m)
    lb = _infinite(np.where(sense == _SENSES["<="], -np.inf, rhs))
    ub = _infinite(np.where(sense == _SENSES[">="], np.inf, rhs))
    faulty = (sense < 0) | ~np.isfinite(rhs) | (lb == np.inf) | (ub == -np.inf)
    bad_terms = np.flatnonzero((cols < 0) | _bad_coefficient(np.abs(vals)))
    faulty[np.searchsorted(indptr, bad_terms, side="right") - 1] = True  # their rows
    if faulty.any():
        raise BackendError(_row_fault(rows[faulty.argmax()], index))

    objective = model.objective
    costs = objective.coefficients
    ocols = np.fromiter(map(index.get, costs, repeat(-1)), dtype=np.int64, count=len(costs))
    ovals = np.fromiter(costs.values(), dtype=float, count=len(costs))
    bad = np.flatnonzero((ocols < 0) | ~(np.abs(ovals) < _HIGHS_INF))
    if len(bad):
        v, coef = list(costs.items())[bad[0]]
        raise BackendError(f"objective references unknown variable {v}" if ocols[bad[0]] < 0
                           else f"objective has coefficient {coef} on {v}")
    if not math.isfinite(objective.constant):
        raise BackendError(f"objective has constant {objective.constant}")

    domain = _codes(_DOMAINS, map(attrgetter("domain"), variables), n)
    if (domain < 0).any():
        raise BackendError(f"unknown variable domain {variables[(domain < 0).argmax()].domain!r}")
    binary = domain == _DOMAINS[BINARY]
    lower = np.where(binary, np.maximum(lower, 0.0), lower)
    upper = np.where(binary, np.minimum(upper, 1.0), upper)
    # Bounds that admit no finite value of the domain would leave the model
    # infeasible with no row to blame: the IIS would be empty.
    whole = domain > 0
    least = np.where(whole, np.ceil(lower), lower)
    most = np.where(whole, np.floor(upper), upper)
    empty = np.flatnonzero((least > most) | (least == np.inf) | (most == -np.inf))
    if len(empty):
        v = variables[empty[0]]
        raise BackendError(
            f"variable {v.name} has bounds [{v.lower}, {v.upper}] that admit no {v.domain} value")

    sign = -1.0 if objective.sense == MAXIMIZE else 1.0
    c = np.zeros(n)
    c[ocols] = sign * ovals
    a = sparse.csr_matrix((vals, cols, indptr), shape=(m, n))
    a.sort_indices()
    return _Arrays(names, sign, c, whole.astype(float), lower, upper, a, lb, ub)


class _Session:
    """The model under the objective ``c`` on one HiGHS instance, the only
    code here that talks to HiGHS; each run gets ``params``'s time limit.
    ``milp`` runs one once.  The IIS probes run one many times, deleting
    rows by freeing their bounds; an integer model runs as a MIP or as its
    LP relaxation for a certificate."""

    def __init__(self, arr: _Arrays, c: np.ndarray, params: SolveParams):
        m, n = arr.a.shape
        lp = HighsLp()
        lp.num_col_, lp.num_row_ = max(n, 1), m
        lp.col_cost_, lp.col_lower_, lp.col_upper_ = c, arr.lower, arr.upper
        if not n:  # HiGHS ends a model without columns in error: one fixed at 0 stands in
            lp.col_cost_ = lp.col_lower_ = lp.col_upper_ = np.zeros(1)
        lp.row_lower_, lp.row_upper_ = arr.lb, arr.ub
        a = lp.a_matrix_
        a.format_, a.num_col_, a.num_row_ = MatrixFormat.kRowwise, lp.num_col_, m
        a.start_, a.index_, a.value_ = arr.a.indptr, arr.a.indices, arr.a.data
        self.highs = _Highs()
        self.highs.setOptionValue("output_flag", False)
        self.highs.setOptionValue("mip_rel_gap", MIP_GAP)
        if self.highs.passModel(lp) == HighsStatus.kError:
            raise BackendError("HiGHS refused the model")
        self.time_limit_s = params.time_limit_s
        self.lb, self.ub = arr.lb, arr.ub
        self.on = np.ones(m, dtype=bool)  # rows whose bounds the instance holds
        self.whole = np.flatnonzero(arr.integrality).astype(np.int32)
        self.relaxed = True  # passed without integrality: the first run sets it
        self.relaxation_feasible = False

    def run(self, rows: np.ndarray | None = None, relaxed: bool = False) -> HighsModelStatus:
        """Run with the rows marked in ``rows`` (all, at first) in force, as
        the LP relaxation when ``relaxed``."""
        if rows is not None:
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
        self.highs.setOptionValue("time_limit", self.highs.getRunTime() + self.time_limit_s)
        self.highs.run()
        return self.highs.getModelStatus()

    def infeasible(self, rows: np.ndarray) -> bool:
        """Whether the rows marked in ``rows`` admit no point of the model.

        Any outcome but ``kInfeasible`` or a feasible point (a time limit,
        say) raises: read either way, it could keep a row the IIS does not
        need or drop one it does."""
        status = self.run(rows)
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
            status = self.run(rows, relaxed=True)
            self.relaxation_feasible = status == HighsModelStatus.kOptimal
            if status != HighsModelStatus.kInfeasible:
                return None
        _, has_ray, ray = self.highs.getDualRay()
        if not has_ray:
            return None
        ray = np.abs(ray)
        return rows & (ray > _RAY_TOL * ray.max())


def milp(arr: _Arrays, params: SolveParams):
    """One run of a new session: the status and, when there is a point (an
    optimum, or a MIP's incumbent at its limit; never an LP's there), the
    point, its objective under ``arr.c`` and the MIP gap (None for an LP)."""
    session = _Session(arr, arr.c, params)
    status = _MODEL_STATUSES.get(session.run(), ERROR)
    info = session.highs.getInfo()
    mip = len(session.whole) > 0
    if status == OPTIMAL or (status == TIME_LIMIT and mip
                             and info.objective_function_value < kHighsInf):
        return (status, session.highs.getSolution().col_value,
                info.objective_function_value, info.mip_gap if mip else None)
    return status, None, None, None


def _ray_variables(arr: _Arrays, params: SolveParams) -> frozenset[str]:
    """Variables driving unboundedness, found by boxing the model.

    Re-solves inside a +/-1e9 box; variables sitting on an artificial
    wall in the boxed optimum are the improving-ray carriers.
    """
    boxed = replace(arr, lower=np.maximum(arr.lower, -_RAY_BOX),
                    upper=np.minimum(arr.upper, _RAY_BOX))
    status, x, _, _ = milp(boxed, params)
    if status != OPTIMAL:
        return frozenset()
    x = np.array(x)
    hits = ((arr.lower == -np.inf) & (x <= -_RAY_BOX * 0.999)
            | (arr.upper == np.inf) & (x >= _RAY_BOX * 0.999))
    return frozenset(arr.names[i] for i in np.flatnonzero(hits))


class HighsBackend:
    """MILP solving on HiGHS sessions; a model HiGHS refuses raises ``BackendError``.

    IIS comes from a portable deletion filter and unbounded rays from an
    artificial-box probe.  HiGHS solves a MIP on a process-wide thread
    pool; its runs are deterministic all the same, so short of a time
    limit, a model passed again gets the same run.
    """

    def solve(self, model: ModelSpec, params: SolveParams = SolveParams()) -> SolveResult:
        arr = _assemble(model)
        status, x, fun, gap = milp(arr, params)
        if x is not None:
            return SolveResult(status, arr.sign * fun + model.objective.constant,
                               dict(zip(arr.names, x)), duality_gap=gap)
        if status == UNBOUNDED:
            return SolveResult(status=UNBOUNDED, ray_vars=_ray_variables(arr, params))
        return SolveResult(status=status)

    def compute_iis(self, model: ModelSpec) -> frozenset[str]:
        """Irreducible inconsistent subsystem of an infeasible model.

        Deletion filter: walk the constraints once, tentatively deleting
        each; if the remainder is still infeasible the deletion sticks.
        The result is irreducible (removing any single member restores
        feasibility) though not necessarily minimum-cardinality.

        The model is passed once to one session, and a probe frees
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
        probe = _Session(arr, np.zeros(len(arr.names)), SolveParams())

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
