"""Output checks of the benchmark, computed apart from the program.

Every check returns a list of error strings; an empty list means the output
passed.  The linear algebra here is the benchmark's own: it reads a
``ModelSpec`` only as data (names, coefficients, senses, bounds) and never
calls the program's solver layer.  Feasibility and duals come from
``scipy.optimize.linprog``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

PRIMAL_TOL = 1e-6        # rows, bounds and integrality
OBJECTIVE_TOL = 1e-7     # reported objective against c.x + constant (relative)
DUAL_TOL = 1e-4          # dual objective against the reported objective (relative)
STATIONARITY_TOL = 1e-6  # |c - A'y - reduced costs| per column, scaled by max(1, |c|)
SIGN_TOL = 1e-7          # a dual multiplier on the wrong side of zero
REPLAY_TOL = 1e-4        # replayed objective against an in-process reference solve


@dataclass
class LpArrays:
    """``min/max c.x + constant`` s.t. ``row_lo <= A x <= row_hi``, ``lb <= x <= ub``."""

    names: list[str]
    rows: list[str]
    c: np.ndarray
    constant: float
    maximize: bool
    a: sparse.csr_matrix
    row_lo: np.ndarray
    row_hi: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    integer: np.ndarray


def lp_arrays(model, rows=None) -> LpArrays:
    """Arrays of ``model``; ``rows`` (constraint names) restricts the rows."""
    index = {v.name: i for i, v in enumerate(model.variables)}
    n = len(index)
    c = np.zeros(n)
    for name, coef in model.objective.coefficients.items():
        c[index[name]] += coef
    cons = model.constraints if rows is None else [
        con for con in model.constraints if con.name in rows]
    r_idx, c_idx, vals = [], [], []
    lo = np.empty(len(cons))
    hi = np.empty(len(cons))
    for r, con in enumerate(cons):
        for name, coef in con.coefficients.items():
            r_idx.append(r)
            c_idx.append(index[name])
            vals.append(coef)
        lo[r] = con.rhs if con.sense in (">=", "=") else -np.inf
        hi[r] = con.rhs if con.sense in ("<=", "=") else np.inf
    a = sparse.csr_matrix((vals, (r_idx, c_idx)), shape=(len(cons), n))
    lb = np.array([v.lower for v in model.variables], dtype=float)
    ub = np.array([v.upper for v in model.variables], dtype=float)
    integer = np.array([v.domain in ("integer", "binary") for v in model.variables])
    binary = np.array([v.domain == "binary" for v in model.variables])
    lb[binary] = np.maximum(lb[binary], 0.0)
    ub[binary] = np.minimum(ub[binary], 1.0)
    return LpArrays(
        names=list(index), rows=[con.name for con in cons], c=c,
        constant=model.objective.constant, maximize=model.objective.sense == "max",
        a=a, row_lo=lo, row_hi=hi, lb=lb, ub=ub, integer=integer)


def _scaled(tol: float, bound: np.ndarray) -> np.ndarray:
    return tol * np.maximum(1.0, np.abs(np.nan_to_num(bound, posinf=0.0, neginf=0.0)))


def check_primal(arr: LpArrays, x: np.ndarray, objective: float) -> list[str]:
    """Every row, bound and integrality of ``x`` holds, and the objective is c.x."""
    errors = []
    ax = arr.a @ x
    low = ax < arr.row_lo - _scaled(PRIMAL_TOL, arr.row_lo)
    high = ax > arr.row_hi + _scaled(PRIMAL_TOL, arr.row_hi)
    for r in np.flatnonzero(low | high)[:3]:
        errors.append(f"row {arr.rows[r]} violated: {ax[r]!r} not in "
                      f"[{arr.row_lo[r]!r}, {arr.row_hi[r]!r}]")
    off = (x < arr.lb - _scaled(PRIMAL_TOL, arr.lb)) | (x > arr.ub + _scaled(PRIMAL_TOL, arr.ub))
    for j in np.flatnonzero(off)[:3]:
        errors.append(f"bound of {arr.names[j]} violated: {x[j]!r} not in "
                      f"[{arr.lb[j]!r}, {arr.ub[j]!r}]")
    frac = arr.integer & (np.abs(x - np.round(x)) > PRIMAL_TOL)
    for j in np.flatnonzero(frac)[:3]:
        errors.append(f"integer {arr.names[j]} is fractional: {x[j]!r}")
    value = float(arr.c @ x) + arr.constant
    if abs(value - objective) > OBJECTIVE_TOL * max(1.0, abs(objective)):
        errors.append(f"reported objective {objective!r} differs from c.x + constant {value!r}")
    return errors


def _linprog_form(arr: LpArrays):
    le = np.isfinite(arr.row_hi) & (arr.row_lo != arr.row_hi)
    ge = np.isfinite(arr.row_lo) & (arr.row_lo != arr.row_hi)
    eq = arr.row_lo == arr.row_hi
    a_ub = sparse.vstack([arr.a[le], -arr.a[ge]]).tocsr()
    b_ub = np.concatenate([arr.row_hi[le], -arr.row_lo[ge]])
    return a_ub, b_ub, arr.a[eq].tocsr(), arr.row_lo[eq]


def check_dual(arr: LpArrays, x: np.ndarray, objective: float) -> list[str]:
    """A dual of a separate linprog solve is feasible and its objective matches.

    Integer columns are fixed at their values in ``x``, so for a MILP this
    certifies the continuous part given the integers; for an LP it certifies
    ``objective`` as the optimum by strong duality.
    """
    sign = -1.0 if arr.maximize else 1.0
    lb, ub = arr.lb.copy(), arr.ub.copy()
    fixed = np.round(x[arr.integer])
    lb[arr.integer], ub[arr.integer] = fixed, fixed
    a_ub, b_ub, a_eq, b_eq = _linprog_form(arr)
    c = sign * arr.c
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=np.column_stack([lb, ub]), method="highs")
    if res.status != 0:
        return [f"dual solve ended with status {res.status}: {res.message}"]
    y_ub, y_eq = res.ineqlin.marginals, res.eqlin.marginals
    z_lo, z_hi = res.lower.marginals, res.upper.marginals
    errors = []
    if (y_ub > SIGN_TOL).any() or (z_lo < -SIGN_TOL).any() or (z_hi > SIGN_TOL).any():
        errors.append("dual multipliers have the wrong sign")
    if np.abs(z_lo[~np.isfinite(lb)]).max(initial=0.0) > SIGN_TOL \
            or np.abs(z_hi[~np.isfinite(ub)]).max(initial=0.0) > SIGN_TOL:
        errors.append("dual multiplier on an infinite bound")
    residual = c - a_ub.T @ y_ub - a_eq.T @ y_eq - z_lo - z_hi
    if (np.abs(residual) > STATIONARITY_TOL * np.maximum(1.0, np.abs(c))).any():
        errors.append(f"dual is infeasible: stationarity residual {np.abs(residual).max()!r}")
    fin_lo, fin_hi = np.isfinite(lb), np.isfinite(ub)
    dual = float(b_ub @ y_ub + b_eq @ y_eq + lb[fin_lo] @ z_lo[fin_lo] + ub[fin_hi] @ z_hi[fin_hi])
    dual_objective = sign * dual + arr.constant
    if abs(dual_objective - objective) > DUAL_TOL * max(1.0, abs(objective)):
        errors.append(f"dual objective {dual_objective!r} does not match reported {objective!r}")
    return errors


def _feasible(arr: LpArrays, keep: np.ndarray) -> int:
    """linprog status of the rows in ``keep`` over the columns they touch."""
    sub = arr.a[keep]
    cols = np.unique(sub.indices)
    part = LpArrays(
        names=[arr.names[j] for j in cols], rows=[arr.rows[r] for r in np.flatnonzero(keep)],
        c=np.zeros(len(cols)), constant=0.0, maximize=False, a=sub[:, cols].tocsr(),
        row_lo=arr.row_lo[keep], row_hi=arr.row_hi[keep], lb=arr.lb[cols], ub=arr.ub[cols],
        integer=arr.integer[cols])
    a_ub, b_ub, a_eq, b_eq = _linprog_form(part)
    res = linprog(part.c, A_ub=a_ub if a_ub.shape[0] else None, b_ub=b_ub if a_ub.shape[0] else None,
                  A_eq=a_eq if a_eq.shape[0] else None, b_eq=b_eq if a_eq.shape[0] else None,
                  bounds=np.column_stack([part.lb, part.ub]), method="highs",
                  integrality=part.integer.astype(int) if part.integer.any() else None)
    return res.status


def check_iis(model, iis, required: str) -> list[str]:
    """``iis`` holds ``required``, is infeasible, and loses infeasibility
    when any one member is removed."""
    names = set(iis)
    errors = []
    if required not in names:
        errors.append(f"IIS lacks the appended row {required}")
    known = {con.name for con in model.constraints}
    if names - known:
        return errors + [f"IIS names unknown rows {sorted(names - known)[:3]}"]
    arr = lp_arrays(model, rows=names)
    everything = np.ones(len(arr.rows), dtype=bool)
    if _feasible(arr, everything) != 2:
        return errors + ["IIS rows are feasible"]
    for r in range(len(arr.rows)):
        keep = everything.copy()
        keep[r] = False
        if keep.any() and _feasible(arr, keep) != 0:
            errors.append(f"IIS is reducible: still infeasible without {arr.rows[r]}")
            break
    return errors


def relative_gap(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-9)


def check_replay_bytes(first: dict[str, bytes], again: dict[str, bytes]) -> list[str]:
    """Files of a later replay are byte-identical to those of the first."""
    return [f"{name} differs from the first replay"
            for name in sorted(set(first) | set(again)) if first.get(name) != again.get(name)]


def expected_repair(z_intact: float, z_mutant: float, guard: float) -> str:
    """``rollback`` when the intact program moves the mutant's objective by
    more than ``guard`` (relative to the mutant's), else ``adopt``."""
    drift = abs(z_intact - z_mutant) / abs(z_mutant) if abs(z_mutant) > 1e-6 \
        else abs(z_intact - z_mutant)
    return "rollback" if drift > guard else "adopt"


def check_repair(expected: str, code: str, objective, mutant_src: str, intact_src: str,
                 z_mutant: float, z_intact: float) -> list[str]:
    """The returned program and objective are the mutant's on a rollback and
    the intact program's on an adoption."""
    want_src, want_z = (mutant_src, z_mutant) if expected == "rollback" else (intact_src, z_intact)
    errors = []
    if code.rstrip("\n") != want_src.rstrip("\n"):
        errors.append(f"{expected} expected, but code.py is not the "
                      f"{'mutant' if expected == 'rollback' else 'intact'} program")
    if objective is None or not math.isfinite(objective) or relative_gap(objective, want_z) > REPLAY_TOL:
        errors.append(f"{expected} expected, objective {objective!r} is not {want_z!r}")
    return errors
