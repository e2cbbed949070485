"""``llstar serve``: a fault-tolerant long-lived parse service.

The paper's analysis bounds (Section 5.3) make a single parse safe; this
package makes a *population* of parses safe to operate: admission
control and load shedding keep latency flat under saturation, a
per-grammar circuit breaker fails fast while a grammar keeps crashing
workers or blowing budgets, and pool death degrades to inline parsing
instead of an outage.  See ``RUNBOOK.md`` for the operator's view.
"""

from repro.serve.admission import AdmissionController
from repro.serve.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    STATE_CODES,
    CircuitBreaker,
)
from repro.serve.errors import (
    BadRequestError,
    CircuitOpenError,
    DrainingError,
    GrammarLoadError,
    RequestTooLargeError,
    ServeError,
    ServiceUnavailableError,
    SheddingError,
    UnknownGrammarError,
)
from repro.serve.http import HttpServer, serve_http
from repro.serve.registry import GrammarRegistry
from repro.serve.service import (
    ParseRequest,
    ParseService,
    Response,
    ServiceConfig,
)
from repro.serve.stdio import handle_line, serve_stdio
from repro.serve.worker import ParseTask

__all__ = [
    "AdmissionController",
    "BadRequestError",
    "CLOSED",
    "CircuitBreaker",
    "CircuitOpenError",
    "DrainingError",
    "GrammarLoadError",
    "GrammarRegistry",
    "HALF_OPEN",
    "HttpServer",
    "OPEN",
    "ParseRequest",
    "ParseService",
    "ParseTask",
    "RequestTooLargeError",
    "Response",
    "STATE_CODES",
    "ServeError",
    "ServiceConfig",
    "ServiceUnavailableError",
    "SheddingError",
    "UnknownGrammarError",
    "handle_line",
    "serve_http",
    "serve_stdio",
]
