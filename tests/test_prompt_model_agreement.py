"""The prompt states the model the judge scores.

For variant 0 of every archetype, the rendered prompt's KEY EQUATIONS (1)-(4)
(fresh inflow, aging, waste, sales availability) are read term by term,
with each term a note under the equation defines (``arrivals``,
``returns``) replaced by its definition.  ``VARIABLES`` and
``COEFFICIENTS`` translate what is left into reference-model variables.
The equations, stated as rows and added to the reference model, must leave
its optimum where it is: a program written exactly to the prompt then
scores as the ground truth does.  A term neither table knows fails the test
by name, so a new cue is translated here before it ships.
"""

from __future__ import annotations

import re

import pytest

from optverify.backend import DEFAULT_BACKEND, Constraint, ModelSpec
from optverify.generator import ARCHETYPES, build_instance
from optverify.prompts import SCHEMA_BASED, render_prompt
from optverify.reference import _iv, _qv, _wv, _xv, _yv, build_reference_model

from .helpers import lp_relaxation


def _bucket(name):
    def translate(inst, p, l, t, k):
        if 1 <= t <= inst.periods and 1 <= k <= inst.shelf_life[p]:
            return {name(p, l, t, k): 1.0}
        return None
    return translate


# Prompt variable -> (indices after p and l, translation).  A translation
# takes (inst, p, l, *indices) and gives {reference variable: coefficient}.
# It gives None where a state variable (I, sales, W) does not exist, and an
# equation naming one there is not stated; it gives {} where the prompt's
# notes say the term is zero (an order or a sale before week 1).
VARIABLES = {
    "I": (2, _bucket(_iv)),
    "sales": (2, _bucket(_yv)),
    "W": (1, lambda inst, p, l, t: {_wv(p, l, t): 1.0} if 1 <= t <= inst.periods else None),
    "Q": (1, lambda inst, p, l, t: {_qv(p, l, t): 1.0} if 1 <= t <= inst.periods else {}),
    "total_sales": (1, lambda inst, p, l, t: {
        _yv(p, l, t, k): 1.0 for k in range(1, inst.shelf_life[p] + 1)} if t >= 1 else {}),
    "ship_in": (1, lambda inst, p, l, t: {
        _xv(p, lf, lto, t): 1.0 for lf, lto in inst.network.trans_edges if lto == l}),
    "ship_out": (1, lambda inst, p, l, t: {
        _xv(p, lf, lto, t): 1.0 for lf, lto in inst.network.trans_edges if lf == l}),
}

# Data a term may be scaled by: "return_rate[p] * total_sales[p,l,t-1]".
COEFFICIENTS = {"return_rate[p]": lambda inst, p: inst.return_rate[p]}

# Atoms of an index expression besides integers, at product p.
_INDEX_ATOMS = {"t", "r", "SL", "lead_time[p]"}

_HEADING = re.compile(r"^  \((\d)\) [^:]+: ", re.MULTILINE)
_EQUATION = re.compile(r"(.+?) (<=|=) (.+)")
_DEFINITION = re.compile(r"(\w+)\[([^\]]*)\] = (.+)")
_TERM = re.compile(r"(?:(\w+\[\w+\]) \* )?(\w+)\[(.+)\]")


def _key_equations(prompt: str) -> dict[int, tuple[str, list[str]]]:
    """{number: (equation, notes)} for the numbered KEY EQUATIONS before
    (5), each equation and note joined onto one line."""
    block = prompt.split("KEY EQUATIONS", 1)[1].split("\n  (5)", 1)[0]
    parts = _HEADING.split(block)[1:]
    equations = {}
    for number, body in zip(parts[::2], parts[1::2]):
        lines: list[str] = []
        for line in body.strip().splitlines():
            line = line.strip()
            if line.startswith("- ") or not lines:
                lines.append(line.removeprefix("- "))
            else:
                lines[-1] += " " + line
        equations[int(number)] = lines[0], lines[1:]
    return equations


def _signed(expr: str) -> list[tuple[float, str]]:
    """``expr`` split at each + and - outside brackets, with its sign."""
    terms, sign, depth, start = [], 1.0, 0, 0
    for i, ch in enumerate(expr):
        depth += {"[": 1, "]": -1}.get(ch, 0)
        if depth == 0 and ch in "+-":
            if expr[start:i].strip():
                terms.append((sign, expr[start:i].strip()))
            sign, start = (1.0 if ch == "+" else -1.0), i + 1
    terms.append((sign, expr[start:].strip()))
    return terms


def _parse(number: int, sign: float, term: str, definitions: dict) -> list[tuple]:
    """(sign, coefficient, variable, index expressions) for ``term``, with a
    defined term replaced by the terms of its definition."""
    match = _TERM.fullmatch(term)
    if match is None:
        pytest.fail(f"equation ({number}): unknown term {term!r}")
    coefficient, name, index = match.groups()
    if coefficient is None and name in definitions:
        formal, expr = definitions[name]
        if index != formal:
            pytest.fail(f"equation ({number}): {term!r} is defined at [{formal}]")
        return [part for s, t in _signed(expr) for part in _parse(number, sign * s, t, {})]
    indices = [i.strip() for i in index.split(",")]
    if (name not in VARIABLES or indices[:2] != ["p", "l"]
            or len(indices) != 2 + VARIABLES[name][0]
            or (coefficient is not None and coefficient not in COEFFICIENTS)):
        pytest.fail(f"equation ({number}): unknown term {term!r}")
    exprs = [_signed(i) for i in indices[2:]]
    for _, atom in (a for e in exprs for a in e):
        if not (atom.isdigit() or atom in _INDEX_ATOMS):
            pytest.fail(f"equation ({number}): unknown index {atom!r} in {term!r}")
    return [(sign, coefficient, name, exprs)]


def _value(expr, env) -> int:
    return int(sum(s * (int(atom) if atom.isdigit() else env[atom]) for s, atom in expr))


def _prompt_rows(inst, prompt: str) -> list[Constraint]:
    """Equations (1)-(4) of ``prompt`` as reference-model rows, stated at
    every (p, l, t) and, where the equation names r, every bucket r, at
    which the state variables they name exist ("for r=1..SL-1" gives the
    same range)."""
    equations = _key_equations(prompt)
    assert sorted(equations) == [1, 2, 3, 4], sorted(equations)
    rows = []
    for number, (equation, notes) in sorted(equations.items()):
        notes = [re.sub(r"\s*\([^()]*\)", "", note) for note in notes]
        definitions = {m[1]: (m[2], m[3]) for m in map(_DEFINITION.fullmatch, notes) if m}
        equation = re.sub(r" for r=\S+$", "", equation)
        match = _EQUATION.fullmatch(equation)
        if match is None:
            pytest.fail(f"equation ({number}) is not 'lhs = rhs' or 'lhs <= rhs': {equation!r}")
        lhs, sense, rhs = match.groups()
        terms = [part for s, t in [(1.0, lhs), *((-s, t) for s, t in _signed(rhs))]
                 for part in _parse(number, s, t, definitions)]
        uses_r = any(atom == "r" for *_, exprs in terms for e in exprs for _, atom in e)
        stated = 0
        for p in inst.products:
            buckets = range(1, inst.shelf_life[p] + 1) if uses_r else [None]
            for l in inst.locations:
                for t in range(1, inst.periods + 1):
                    for r in buckets:
                        env = {"t": t, "r": r, "SL": inst.shelf_life[p],
                               "lead_time[p]": inst.lead_time[p]}
                        coeffs: dict[str, float] = {}
                        for sign, coefficient, name, exprs in terms:
                            scale = sign * (COEFFICIENTS[coefficient](inst, p) if coefficient else 1.0)
                            got = VARIABLES[name][1](inst, p, l, *(_value(e, env) for e in exprs))
                            if got is None:
                                break
                            for var, x in got.items():
                                coeffs[var] = coeffs.get(var, 0.0) + scale * x
                        else:
                            rows.append(Constraint(f"prompt({number})[{p},{l},{t},{r}]",
                                                   coeffs, sense, 0.0))
                            stated += 1
        assert stated, f"equation ({number}) is stated nowhere: {equation!r}"
    return rows


@pytest.mark.parametrize("archetype_id", sorted(ARCHETYPES))
def test_prompt_key_equations_keep_the_optimum(archetype_id):
    # The F6 archetypes' MIPs are compared as LP relaxations, as
    # test_omitted_sales_availability_rows_are_implied does.
    inst = build_instance(archetype_id, 0)
    rows = _prompt_rows(inst, render_prompt(inst, SCHEMA_BASED))
    model = lp_relaxation(build_reference_model(inst))
    names = {v.name for v in model.variables}
    for row in rows:
        missing = set(row.coefficients) - names
        assert not missing, f"{row.name} names {sorted(missing)}, not in the reference model"
    stated = ModelSpec(model.variables, model.constraints + rows, model.objective)
    want, got = DEFAULT_BACKEND.solve(model), DEFAULT_BACKEND.solve(stated)
    assert got.status == want.status
    if want.objective is not None:
        assert got.objective == pytest.approx(want.objective, rel=1e-9)
