"""Pins the bytes of the chain-of-thought, repair, regeneration and
extraction prompts.

``ReplayTransport`` keys each recorded reply by the SHA-256 of the request,
so one changed byte in a prompt makes every recorded fixture miss.  The
grid covers both chain-of-thought variants (no record, the suite's base
record, a small record), the repair prompt for a program with and without a
record across three issue lists and a set or absent objective, and the
regeneration prompt for both programs, on two problems, one of which holds
braces and quotes.  A second grid, with its own digest, covers L2's
constraint and objective-term extraction prompts over three key lists and
the data-extraction prompt, with their system prompts.
"""

from __future__ import annotations

import hashlib

from optverify.diagnostics import INFO, WARNING, Diagnostic
from optverify import l2
from optverify.generator import build_instance
from optverify.l1 import REGENERATION_SYSTEM_PROMPT, build_regeneration_prompt
from optverify.llm import (
    COT_SYSTEM_PROMPT,
    EXTRACTION_SYSTEM_PROMPT,
    CallableTransport,
    LlmClient,
    LlmConfig,
    build_cot_prompt,
    build_extraction_prompt,
)
from optverify.repair import REPAIR_SYSTEM_PROMPT, build_repair_prompt
from optverify.runtime import CandidateProgram
from optverify.scenario import to_json_dict

# SHA-256 over every rendering of each grid below, each preceded by its label.
PROMPT_DIGEST = "25271f559253768e21bb180b162774d127d7303142b857dea1102fe6897ec4c9"
EXTRACTION_DIGEST = "da95d862805e0c8410a683844ac7a709bb1aa3e93821ac7d69cbb33539161c9e"

PROBLEMS = (
    "Minimize cost over 3 periods; capacity 120 units.",
    'Plan {orders} for "DC1" and \'DC2\'; keep {m.Status} and {{x}} intact.\n',
)

SMALL_RECORD = {"capacity": 1.5, "demand": [1.0, 2.0, 3.0], "cost": {"a": 2}}

PROGRAMS = (
    CandidateProgram('x = data["capacity"]\nprint(f"status: {2}")', SMALL_RECORD),
    CandidateProgram("cap = {'DC1': 120}\nprint('status: 2')"),
)

_W1 = Diagnostic("L2_CPT", WARNING, "constraint_missing", "storage capacity limit",
                 "perturbation x0.001 caused only 0.3% objective change")
_W2 = Diagnostic("L2_OPT", WARNING, "objective_term_missing", "cost {a}",
                 "data['cost'] = {'a': 2} moved the objective 0.0%")
_I1 = Diagnostic("L2_OPT", INFO, "objective_term_uncertain", "waste cost term",
                 "perturbation x0.001 caused only 12.0% objective change")
_I2 = Diagnostic("L2_CPT", INFO, "constraint_uncertain", "labor {cap}",
                 "evidence with {braces} and \"quotes\"")

ISSUE_LISTS = (
    ([_W1], []),
    ([_W1, _W2], [_I1]),
    ([_W2], [_I1, _I2]),
)


def _renderings():
    suite_record = to_json_dict(build_instance("f1_base", 0))
    yield "system", "\n".join(
        (COT_SYSTEM_PROMPT, REPAIR_SYSTEM_PROMPT, REGENERATION_SYSTEM_PROMPT))
    for p, problem in enumerate(PROBLEMS):
        for r, record in enumerate((None, suite_record, SMALL_RECORD)):
            yield f"cot/{p}/{r}", build_cot_prompt(problem, record)
        for g, program in enumerate(PROGRAMS):
            for i, (actionable, reference) in enumerate(ISSUE_LISTS):
                for objective in (1234.5, None):
                    yield (f"repair/{p}/{g}/{i}/{objective}",
                           build_repair_prompt(problem, program, objective,
                                               actionable, reference))
            yield f"regen/{p}/{g}", build_regeneration_prompt(
                problem, program, "candidate crashed: KeyError: '{missing}'")


def _extraction_renderings():
    sent = []

    def capture(payload):
        sent.append(payload)
        return "[]"

    client = LlmClient(LlmConfig(), CallableTransport(capture))
    key_lists = (list(to_json_dict(build_instance("f1_base", 0))),
                 l2.data_names(PROGRAMS[1].source), [])
    yield "system", "\n".join((l2.EXTRACTION_SYSTEM, EXTRACTION_SYSTEM_PROMPT))
    for p, problem in enumerate(PROBLEMS):
        yield f"data/{p}", build_extraction_prompt(problem)
        for k, keys in enumerate(key_lists):
            sent.clear()
            l2.extract_candidates(problem, keys, client)
            for layer, payload in zip(("cpt", "opt"), sent, strict=True):
                yield f"{layer}/{p}/{k}", f"{payload['system']}\0{payload['user']}"


def _digest(renderings):
    digest = hashlib.sha256()
    count = 0
    for label, text in renderings:
        digest.update(f"{label}\0{text}\0".encode("utf-8"))
        count += 1
    return count, digest.hexdigest()


def test_prompt_bytes_pinned():
    assert _digest(_renderings()) == (35, PROMPT_DIGEST)


def test_extraction_prompt_bytes_pinned():
    assert _digest(_extraction_renderings()) == (15, EXTRACTION_DIGEST)
