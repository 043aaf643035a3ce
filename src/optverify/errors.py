"""Exception types shared across the package."""

from __future__ import annotations


class SchemaError(ValueError):
    """An instance record violates the scenario schema.

    The message always names the first offending field.
    """


class UnknownArchetype(KeyError):
    """Requested archetype id is not registered."""


class BadVariantIndex(ValueError):
    """Variant index outside 0..4."""


class BackendError(RuntimeError):
    """The solver backend itself failed (crash, bad input), as opposed to
    the model being infeasible or unbounded."""


class NotInfeasible(RuntimeError):
    """IIS was requested for a model that is not infeasible."""


class SandboxSetupError(RuntimeError):
    """The candidate runtime could not be set up (e.g. the fork failed);
    distinct from the candidate program crashing."""


class ExtractionError(RuntimeError):
    """An extraction reply contained no parseable JSON payload."""


class ParameterNotFound(LookupError):
    """Neither the data record nor the source code contains the parameter."""


class GenerationError(RuntimeError):
    """No code block could be extracted from any generation reply."""


class LlmError(RuntimeError):
    """Chat-completion call failed.

    ``kind`` is one of: auth, rate_limit, transport, empty_reply.
    """

    def __init__(self, kind: str, message: str):
        super().__init__(f"{kind}: {message}")
        self.kind = kind
        self.message = message

    def __reduce__(self):
        # Rebuilt from both arguments, so it survives a worker process.
        return type(self), (self.kind, self.message)


class UnknownBenchmark(KeyError):
    """No tolerance rule registered for the benchmark name."""


class EmptySuite(ValueError):
    """Aggregation requested over zero records."""


class ConfigError(ValueError):
    """Pipeline configuration is inconsistent."""
