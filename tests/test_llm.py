from __future__ import annotations

import pickle

import pytest

from optverify.errors import ExtractionError, GenerationError, LlmError
from optverify.llm import (
    CallableTransport,
    LlmClient,
    LlmConfig,
    RecordingTransport,
    ReplayTransport,
    build_cot_prompt,
    build_extraction_prompt,
    canonical_request,
    describe_data_keys,
    extract_code,
    find_json_payload,
    generate,
    generate_with_schema,
    parse_extraction_reply,
    request_hash,
)
from optverify.runtime import EXTERNAL_DICT, SELF_CONTAINED


def _client(fn, **config_kwargs):
    config_kwargs.setdefault("backoff_s", 0.0)
    return LlmClient(LlmConfig(**config_kwargs), CallableTransport(fn))


# --------------------------------------------------------------------------
# Client and transports
# --------------------------------------------------------------------------


def test_complete_returns_text():
    client = _client(lambda payload: f"echo: {payload['user']}")
    assert client.complete("sys", "hello") == "echo: hello"


def test_retry_on_transport_error():
    calls = []

    def flaky(payload):
        calls.append(1)
        if len(calls) < 3:
            raise LlmError("transport", "connection reset")
        return "recovered"

    assert _client(flaky).complete("s", "u") == "recovered"
    assert len(calls) == 3


def test_auth_error_not_retried():
    calls = []

    def denied(payload):
        calls.append(1)
        raise LlmError("auth", "401")

    with pytest.raises(LlmError) as err:
        _client(denied).complete("s", "u")
    assert err.value.kind == "auth"
    assert len(calls) == 1


def test_llm_error_survives_pickling():
    # A pipeline worker process sends its LlmError back to the CLI by pickle.
    err = pickle.loads(pickle.dumps(LlmError("network", "boom")))
    assert isinstance(err, LlmError)
    assert err.kind == "network"
    assert str(err) == "network: boom"


def test_empty_reply_raises():
    with pytest.raises(LlmError) as err:
        _client(lambda p: "   ").complete("s", "u")
    assert err.value.kind == "empty_reply"


def test_record_then_replay_byte_exact(tmp_path):
    recording = RecordingTransport(tmp_path, CallableTransport(lambda p: "the reply\nbytes"))
    config = LlmConfig()
    live = LlmClient(config, recording)
    reply = live.complete("sys", "user text")

    replay = LlmClient(config, ReplayTransport(tmp_path))
    assert replay.complete("sys", "user text") == reply == "the reply\nbytes"


def test_replay_miss_is_transport_error(tmp_path):
    client = LlmClient(LlmConfig(retry_attempts=1), ReplayTransport(tmp_path))
    with pytest.raises(LlmError) as err:
        client.complete("sys", "never recorded")
    assert err.value.kind == "transport"


def test_request_hash_sensitivity():
    config = LlmConfig(model_name="m")
    a = request_hash(canonical_request(config, "s", "u"))
    b = request_hash(canonical_request(config, "s", "u2"))
    c = request_hash(canonical_request(LlmConfig(model_name="m2"), "s", "u"))
    assert a != b and a != c
    assert a == request_hash(canonical_request(config, "s", "u"))


# --------------------------------------------------------------------------
# Prompt builders
# --------------------------------------------------------------------------


def test_cot_prompt_self_contained_markers():
    text = build_cot_prompt("PROBLEM BODY")
    assert "Define ALL data within your code" in text
    assert "STEP 4: VERIFY COMPLETENESS" in text
    assert "PROBLEM BODY" in text
    assert "PRE-LOADED" not in text
    assert "NEVER hardcode Big-M values" in text


def test_cot_prompt_data_reference_markers():
    text = build_cot_prompt("PROBLEM", {"capacity": 1.5, "demand": [1.0, 2.0, 3.0]})
    assert "The `data` variable is PRE-LOADED" in text
    assert "STEP 4: VERIFY COMPLETENESS" in text
    assert "## Available Data Keys" in text
    assert "- demand: list[float] (length 3)" in text
    assert "7. Do NOT use `import json`" in text
    assert "Are data keys accessed correctly?" in text
    assert "Define ALL data within your code" not in text


def test_cot_prompts_are_pure():
    assert build_cot_prompt("x") == build_cot_prompt("x")
    record = {"a": 1}
    assert build_cot_prompt("x", record) == build_cot_prompt("x", record)


def test_extraction_prompt():
    text = build_extraction_prompt("P")
    assert "JSON object" in text
    assert "## Problem Description\nP" in text


# --------------------------------------------------------------------------
# Reply parsing
# --------------------------------------------------------------------------


def test_extract_code_takes_last_fence():
    reply = (
        "Reasoning first.\n```python\nx = 1\n```\n"
        "More words.\n```python\nx = 2\n```\n"
    )
    assert extract_code(reply) == "x = 2"


def test_extract_code_handles_plain_fence():
    assert extract_code("```\ny = 3\n```") == "y = 3"


def test_extract_code_none_without_fence():
    assert extract_code("no code here") is None


def test_find_json_payload_in_prose():
    payload = find_json_payload('Sure! {"a": 1, "b": [2, 3]} hope it helps')
    assert payload == {"a": 1, "b": [2, 3]}


def test_find_json_payload_array():
    assert find_json_payload("text [1, 2] text", "[") == [1, 2]


def test_find_json_payload_skips_any_number_of_non_json_groups():
    assert find_json_payload("[a] " * 20 + "[1]", "[") == [1]


def test_find_json_payload_nested_braces_in_strings():
    payload = find_json_payload('{"s": "curly } inside", "n": 1}')
    assert payload["n"] == 1


def test_find_json_payload_failure():
    with pytest.raises(ExtractionError):
        find_json_payload("nothing json-like")


def test_parse_extraction_reply_requires_object():
    with pytest.raises(ExtractionError):
        parse_extraction_reply("[1, 2, 3]")
    assert parse_extraction_reply('{"capacity": 10}') == {"capacity": 10}


def test_describe_data_keys():
    desc = describe_data_keys({
        "periods": 20,
        "rate": 0.5,
        "demand": [1.0, 2.0],
        "share": {"DC1": 0.3},
        "budget": None,
    })
    assert desc["periods"] == "int"
    assert desc["rate"] == "float"
    assert desc["demand"] == "list[float] (length 2)"
    assert "dict" in desc["share"]
    assert desc["budget"] == "null"


# --------------------------------------------------------------------------
# generate(): extraction-first with fallback
# --------------------------------------------------------------------------

_CODE_REPLY = "```python\nm = 1\nprint('status: 2')\nprint('objective: 1')\n```"


def test_generate_extraction_first_path():
    def fn(payload):
        if "Extract all numerical parameters" in payload["user"]:
            return '{"capacity": 100, "demand": [1, 2, 3]}'
        assert "PRE-LOADED" in payload["user"]
        return _CODE_REPLY

    program = generate("problem", _client(fn))
    assert program.data_mode == EXTERNAL_DICT
    assert program.data == {"capacity": 100, "demand": [1, 2, 3]}
    assert "m = 1" in program.source


def test_generate_falls_back_on_bad_extraction():
    def fn(payload):
        if "Extract all numerical parameters" in payload["user"]:
            return "I could not find any parameters."
        assert "self-contained" in payload["user"]
        return _CODE_REPLY

    program = generate("problem", _client(fn))
    assert program.data_mode == SELF_CONTAINED
    assert program.data is None


def test_generate_falls_back_when_code_parses_embedded_data():
    calls = []

    def fn(payload):
        calls.append(payload["user"][:30])
        if "Extract all numerical parameters" in payload["user"]:
            return '{"x": 1}'
        if "PRE-LOADED" in payload["user"]:
            return "```python\nimport json\ndata = json.loads(raw)\n```"
        return _CODE_REPLY

    program = generate("problem", _client(fn))
    assert program.data_mode == SELF_CONTAINED
    assert program.data is None
    assert len(calls) == 3  # extraction, data-reference attempt, fallback


def test_generate_error_when_no_code_anywhere():
    def fn(payload):
        if "Extract all numerical parameters" in payload["user"]:
            return '{"x": 1}'
        return "sorry, narrative only"

    with pytest.raises(GenerationError):
        generate("problem", _client(fn))


def test_generate_with_schema():
    def fn(payload):
        assert "PRE-LOADED" in payload["user"]
        return _CODE_REPLY

    record = {"capacity": 1.5}
    program = generate_with_schema("problem", _client(fn), record)
    assert program.data_mode == EXTERNAL_DICT
    assert program.data is record
