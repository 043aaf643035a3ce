"""Provider-agnostic chat-completion client and generation prompt builders.

The client speaks one canonical request shape ({model, temperature,
max_tokens, system, user}); transports adapt it to a provider wire format,
replay it from recorded fixtures, or hand it to a callable (tests).  With
temperature 0 and a fixture transport the whole pipeline replays bit-exact,
which is how CI runs without live providers.

Generation follows an extraction-first strategy: first ask the model to pull
the numeric parameters out of the problem text into a structured record,
then generate code that references the pre-loaded ``data`` dict; fall back
to fully self-contained code when extraction fails or the generated code
insists on parsing embedded data itself.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping, Protocol

import requests

from .errors import ExtractionError, GenerationError, LlmError
from .runtime import CandidateProgram


@dataclass(frozen=True)
class LlmConfig:
    """Provider settings; the field names are the ``--provider`` file's keys."""

    endpoint: str = ""
    model_name: str = "unknown"
    temperature: float = 0.0
    max_tokens: int = 8192
    api_key_env: str = "OPTVERIFY_API_KEY"
    retry_attempts: int = 3
    backoff_s: float = 1.0


# Config used when running purely from recorded fixtures; recording and
# replaying sides must share the hashed fields (model, temperature,
# max_tokens) so request hashes line up.  A fixture miss is permanent, so
# no retries.
REPLAY_CONFIG = LlmConfig(model_name="replay", retry_attempts=1, backoff_s=0.0)


def canonical_request(config: LlmConfig, system: str, user: str) -> dict[str, Any]:
    return {
        "model": config.model_name,
        "temperature": config.temperature,
        "max_tokens": config.max_tokens,
        "system": system,
        "user": user,
    }


def request_hash(payload: Mapping[str, Any]) -> str:
    canon = json.dumps(payload, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


class Transport(Protocol):
    def send(self, payload: dict[str, Any]) -> str: ...


class HttpTransport:
    """OpenAI-style chat-completions endpoint over HTTP."""

    def __init__(self, config: LlmConfig):
        self.config = config

    def send(self, payload: dict[str, Any]) -> str:
        headers = {"Content-Type": "application/json"}
        key = os.environ.get(self.config.api_key_env, "")
        if key:
            headers["Authorization"] = f"Bearer {key}"
        body = {
            "model": payload["model"],
            "temperature": payload["temperature"],
            "max_tokens": payload["max_tokens"],
            "messages": [
                {"role": "system", "content": payload["system"]},
                {"role": "user", "content": payload["user"]},
            ],
        }
        try:
            resp = requests.post(
                self.config.endpoint, json=body, headers=headers, timeout=300)
        except requests.RequestException as exc:
            raise LlmError("transport", str(exc)) from exc
        if resp.status_code in (401, 403):
            raise LlmError("auth", f"provider returned {resp.status_code}")
        if resp.status_code == 429:
            raise LlmError("rate_limit", "provider returned 429")
        if resp.status_code >= 400:
            raise LlmError("transport", f"provider returned {resp.status_code}")
        try:
            return resp.json()["choices"][0]["message"]["content"]
        except (KeyError, IndexError, ValueError) as exc:
            raise LlmError("transport", f"malformed provider reply: {exc}") from exc


class ReplayTransport:
    """Reads recorded replies keyed by request hash; never touches a network."""

    def __init__(self, fixture_dir: str | Path):
        self.fixture_dir = Path(fixture_dir)

    def send(self, payload: dict[str, Any]) -> str:
        path = self.fixture_dir / f"{request_hash(payload)}.json"
        if not path.exists():
            raise LlmError(
                "transport", f"no recorded reply for request hash {path.stem}")
        return json.loads(path.read_text(encoding="utf-8"))["reply"]


class RecordingTransport:
    """Delegates to an inner transport and persists request/reply pairs."""

    def __init__(self, fixture_dir: str | Path, inner: Transport):
        self.fixture_dir = Path(fixture_dir)
        self.fixture_dir.mkdir(parents=True, exist_ok=True)
        self.inner = inner

    def send(self, payload: dict[str, Any]) -> str:
        reply = self.inner.send(payload)
        path = self.fixture_dir / f"{request_hash(payload)}.json"
        path.write_text(
            json.dumps({"request": payload, "reply": reply},
                       sort_keys=True, ensure_ascii=False, indent=2) + "\n",
            encoding="utf-8",
        )
        return reply


class CallableTransport:
    """Wraps a plain function; the workhorse for scripted tests."""

    def __init__(self, fn: Callable[[dict[str, Any]], str]):
        self.fn = fn

    def send(self, payload: dict[str, Any]) -> str:
        return self.fn(payload)


_RETRYABLE = {"transport", "rate_limit"}


class LlmClient:
    def __init__(self, config: LlmConfig, transport: Transport | None = None):
        self.config = config
        self.transport = transport if transport is not None else HttpTransport(config)

    def complete(self, system: str, user: str) -> str:
        payload = canonical_request(self.config, system, user)
        attempts = max(1, self.config.retry_attempts)
        last: LlmError | None = None
        for attempt in range(attempts):
            try:
                reply = self.transport.send(payload)
                if not reply or not reply.strip():
                    raise LlmError("empty_reply", "provider returned empty text")
                return reply
            except LlmError as exc:
                if exc.kind not in _RETRYABLE:
                    raise
                last = exc
                if attempt < attempts - 1:
                    time.sleep(self.config.backoff_s * (attempt + 1))
        assert last is not None
        raise last


# --------------------------------------------------------------------------
# Prompt builders
# --------------------------------------------------------------------------

COT_SYSTEM_PROMPT = (
    "You are an optimization expert who solves problems with step-by-step "
    "reasoning."
)

_COT_STEP1 = """\
## STEP 1: UNDERSTAND THE PROBLEM
First, analyze the problem:
- What is the objective? (minimize cost / maximize profit / etc.)
- What decisions need to be made?
- What constraints exist?
- What parameters are given?
"""

_COT_STEP2_TEMPLATE = """\
## STEP 2: FORMULATE THE MATHEMATICAL MODEL
Write the formal model:
- Sets and indices
- {parameters_line}
- Decision variables with domains
  **Variable Type**: For each variable, explicitly decide CONTINUOUS,
  INTEGER, or BINARY. Look for context where fractional values would
  be physically meaningless (e.g., number of trucks, workers to hire,
  items to select). State your choice and reasoning.
- Constraints in mathematical notation
- Objective function
"""

_COT_RULES_TAIL = """\
2. Model variable must be named `m`
3. Set `m.Params.OutputFlag = 0`
4. Print exactly: `print(f"status: {m.Status}")` and
   `print(f"objective: {m.ObjVal}")`
5. Implement ALL constraints mentioned in the problem description
   (not just those in Step 2 -- re-read the problem to ensure
   nothing is missed)
6. Include ALL cost/revenue terms from the problem in the objective
   function
"""

_COT_GUIDELINES = """\
**Big-M Guidelines (if using indicator/logical constraints):**
- NEVER hardcode Big-M values like `M = 1e6`
- ALWAYS compute M dynamically from data parameters

**Edge Case Handling:**
- Check array length before iteration
- Avoid division by zero: `max(value, 1e-6)`
"""

_COT_STEP4_TEMPLATE = """\
## STEP 4: VERIFY COMPLETENESS
Before finalizing, cross-check your code against the original problem:
- Does the objective include EVERY cost/revenue term mentioned in the
  problem?
- Is EVERY constraint from the problem implemented in the code?
- {values_line}
If anything is missing, fix the code before returning it.
"""

_COT_CLOSING = """\
---
Now solve the problem. Show your reasoning for Steps 1-2, then
provide the final code in a ```python block.
"""


def build_cot_prompt(problem: str, record: Mapping[str, Any] | None = None) -> str:
    """Four-stage chain-of-thought generation prompt.

    With a data ``record`` the prompt is the data-reference variant: the
    code reads the pre-loaded ``data`` dict, whose keys the prompt lists
    with their types (see :func:`data_key_lines`).  Without one the
    code must be self-contained.
    """
    parts = [
        "Solve this optimization problem using chain-of-thought reasoning.\n",
        f"## Problem\n{problem}\n",
        "---",
        _COT_STEP1,
    ]
    if record is None:
        parts.append(_COT_STEP2_TEMPLATE.format(
            parameters_line="Parameters (extract all numerical values from the problem\n  description)"))
        parts.append(
            "## STEP 3: GENERATE GUROBI CODE\n"
            "Write self-contained Python code using gurobipy.\n"
            "\n"
            "**CRITICAL RULES:**\n"
            "1. Define ALL data within your code (extract numbers from the problem\n"
            "   description above)\n"
            + _COT_RULES_TAIL
        )
        parts.append(_COT_GUIDELINES)
        parts.append(_COT_STEP4_TEMPLATE.format(
            values_line="Are all numerical values correctly extracted from the problem\n  description?"))
    else:
        parts.append(_COT_STEP2_TEMPLATE.format(
            parameters_line="Parameters (reference the data keys listed below)"))
        parts.append(
            "## STEP 3: GENERATE GUROBI CODE\n"
            "Write Python code using gurobipy.\n"
            "\n"
            "**CRITICAL RULES:**\n"
            "1. The `data` variable is PRE-LOADED with the problem data. Do NOT\n"
            "   define or redefine `data`. Just use data[\"key\"] directly.\n"
            + _COT_RULES_TAIL
            + "7. Do NOT use `import json` or `json.loads()`. Data is already a\n"
            "   Python dict.\n"
        )
        parts.append(_COT_GUIDELINES)
        parts.append(f"## Available Data Keys\n{data_key_lines(record)}\n")
        parts.append(_COT_STEP4_TEMPLATE.format(
            values_line="Are data keys accessed correctly?"))
    parts.append(_COT_CLOSING)
    return "\n".join(parts)


EXTRACTION_SYSTEM_PROMPT = (
    "You extract numerical data from optimization problem statements."
)

_EXTRACTION_TEMPLATE = """\
Extract all numerical parameters from this optimization problem into a
structured JSON dictionary.

## Problem Description
{problem}

## Task
Identify every numeric parameter stated in the problem (scalars, arrays,
tables) and give each a short snake_case name. Preserve array order.

## Output Format
Return ONLY a JSON object mapping parameter names to numbers, arrays of
numbers, or nested objects of numbers. No explanation.
"""


def build_extraction_prompt(problem: str) -> str:
    return _EXTRACTION_TEMPLATE.format(problem=problem)


_FENCE_RE = re.compile(r"```[a-zA-Z0-9_+-]*\s*\n(.*?)```", re.DOTALL)


def extract_code(reply: str) -> str | None:
    """Code from the LAST fenced block (reasoning precedes the final code)."""
    blocks = _FENCE_RE.findall(reply)
    if not blocks:
        return None
    code = blocks[-1].strip("\n")
    return code if code.strip() else None


def find_json_payload(text: str, opener: str = "{") -> Any:
    """First JSON object/array in free-form text: the whole text, else a
    fenced block, else the first ``opener`` in the text that starts one.

    Raises :class:`ExtractionError` when nothing parses.
    """
    for cand in [text.strip(), *(block.strip() for block in _FENCE_RE.findall(text))]:
        if cand.startswith(opener):
            try:
                return json.loads(cand)
            except ValueError:
                pass
    decoder = json.JSONDecoder()
    start = text.find(opener)
    while start != -1:
        try:
            return decoder.raw_decode(text, start)[0]
        except ValueError:
            start = text.find(opener, start + 1)
    raise ExtractionError(f"no parseable JSON payload opening with {opener!r}")


def parse_extraction_reply(reply: str) -> dict[str, Any]:
    payload = find_json_payload(reply, "{")
    if not isinstance(payload, dict) or not payload:
        raise ExtractionError("extraction reply is not a non-empty JSON object")
    return payload


def describe_data_keys(record: Mapping[str, Any]) -> dict[str, str]:
    """Short type/dimension descriptions for a data record's top-level keys."""

    def describe(value: Any) -> str:
        if isinstance(value, bool):
            return "bool"
        if isinstance(value, int):
            return "int"
        if isinstance(value, float):
            return "float"
        if isinstance(value, str):
            return "str"
        if value is None:
            return "null"
        if isinstance(value, (list, tuple)):
            inner = describe(value[0]) if value else "?"
            return f"list[{inner}] (length {len(value)})"
        if isinstance(value, Mapping):
            if value:
                k, v = next(iter(value.items()))
                return f"dict[{describe(k)} -> {describe(v)}] ({len(value)} keys)"
            return "dict (empty)"
        return type(value).__name__

    return {k: describe(v) for k, v in record.items()}


def data_key_lines(record: Mapping[str, Any]) -> str:
    """A record's keys as the prompts list them, one ``- key: type`` line each."""
    return "\n".join(f"- {k}: {v}" for k, v in describe_data_keys(record).items())


def _embeds_data_parse(code: str) -> bool:
    return "json.loads" in code or "json.load(" in code


def generate(problem: str, llm: LlmClient) -> CandidateProgram:
    """Extraction-first candidate generation with self-contained fallback.

    Step 1 extracts numeric parameters into a record; on success the code is
    generated against the pre-loaded ``data`` dict and the program carries
    that record.  Any failure along that path (bad JSON, empty record, no
    code fence, code that re-parses embedded data) falls back to
    self-contained generation, a program without a record.
    """
    try:
        reply = llm.complete(EXTRACTION_SYSTEM_PROMPT, build_extraction_prompt(problem))
        extracted = parse_extraction_reply(reply)
    except (LlmError, ExtractionError):
        extracted = None

    if extracted is not None:
        reply = llm.complete(COT_SYSTEM_PROMPT, build_cot_prompt(problem, extracted))
        code = extract_code(reply)
        if code is not None and not _embeds_data_parse(code):
            return CandidateProgram(code, extracted)

    reply = llm.complete(COT_SYSTEM_PROMPT, build_cot_prompt(problem))
    code = extract_code(reply)
    if code is None:
        raise GenerationError("no code block found in any generation reply")
    return CandidateProgram(code)


def generate_with_schema(
    problem: str, llm: LlmClient, record: dict[str, Any]
) -> CandidateProgram:
    """Data-reference generation against a known record (no extraction step)."""
    reply = llm.complete(COT_SYSTEM_PROMPT, build_cot_prompt(problem, record))
    code = extract_code(reply)
    if code is None:
        raise GenerationError("no code block found in generation reply")
    return CandidateProgram(code, record)
