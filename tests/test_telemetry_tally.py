"""The per-parse tally folds to exactly what per-event recording gives.

A parser attached to a ``ParseTelemetry`` counts its predictions, rules
and speculations in a :class:`~repro.runtime.telemetry.ParseTally` and
folds it in once per parse (``record_parse``); one attached to a
:class:`~repro.runtime.telemetry.TraceTelemetry`, whose transcript is an
ordering, delivers each prediction and speculation as it happens.  Both
sides time rule spans (``trace_rules=True``, as a trace always does).
Over the same inputs both must leave identical per-decision stats and
identical samples for every metric, span latencies aside (those are
timings: only their counts must agree).  The inputs include mutated
sentences, recovery, and a DFA-step budget small enough that many
parses raise in the middle of a prediction.
"""

import sys
import threading

import pytest

from repro.exceptions import LLStarError
from repro.fuzz.generator import SentenceGenerator
from repro.grammars import PAPER_ORDER, load
from repro.runtime.budget import ParserBudget
from repro.runtime.parser import ParserOptions
from repro.runtime.telemetry import ParseTelemetry, TraceTelemetry
from tests.test_codegen_suite import load_generated


def corpus(host):
    """12 generated sentences and one mutation of each."""
    gen = SentenceGenerator(host, seed=7)
    sentences = gen.generate(12)
    texts = [s.text for s in sentences] + [gen.mutate(s).text for s in sentences]
    return [text for text in texts if text is not None]


def observed(telemetry):
    """Everything a telemetry aggregated, span latencies as counts."""
    stats = {d: (s.events, s.sum_depth, s.max_depth, s.backtrack_events,
                 s.sum_backtrack_depth, s.max_backtrack_depth)
             for d, s in telemetry.profiler.stats.items()}
    metrics = telemetry.metrics.to_json()
    for sample in metrics.get("llstar_span_seconds", {}).get("samples", ()):
        for timing in ("buckets", "sum", "max"):
            del sample[timing]
    return stats, telemetry.profiler.total_events, metrics


def parse_each(parse, texts):
    """Parse every text with ``parse(text)``; the number that raised."""
    raised = 0
    for text in texts:
        try:
            parse(text)
        except (LLStarError, RecursionError):
            raised += 1
    return raised


@pytest.fixture(scope="module", params=PAPER_ORDER)
def suite_grammar(request):
    host = load(request.param).compile()
    return host, corpus(host)


@pytest.mark.parametrize("recover", [False, True])
@pytest.mark.parametrize("budget", [None, ParserBudget(max_dfa_steps=60)],
                         ids=["unbounded", "dfa-steps-60"])
def test_fold_equals_per_event_recording(suite_grammar, recover, budget):
    host, texts = suite_grammar
    tallied = ParseTelemetry(trace_rules=True)
    per_event = TraceTelemetry()
    assert not tallied.per_event and per_event.per_event
    raised = []
    for telemetry in (tallied, per_event):
        options = ParserOptions(recover=recover, budget=budget,
                                telemetry=telemetry)
        raised.append(parse_each(
            lambda text: host.parser(text, options=options).parse(), texts))
    assert raised[0] == raised[1]
    assert tallied.profiler.total_events > 0
    assert observed(tallied) == observed(per_event)


def test_generated_parser_fold_equals_per_event_recording():
    host = load("rats_c").compile()
    cls = load_generated(host)
    texts = corpus(host)
    tallied = ParseTelemetry(trace_rules=True)
    per_event = TraceTelemetry()
    for telemetry in (tallied, per_event):
        parse_each(lambda text: cls(host.tokenize(text),
                                    telemetry=telemetry).parse(), texts)
    assert tallied.metrics.value("llstar_rule_invocations_total") > 0
    assert tallied.metrics.value("llstar_synpred_invocations_total") > 0
    assert observed(tallied) == observed(per_event)


def test_a_parser_that_parses_twice_counts_each_parse_once():
    host = load("sql").compile()
    text = corpus(host)[0]
    once = ParseTelemetry()
    host.recognize(text, options=ParserOptions(telemetry=once))
    twice = ParseTelemetry()
    parser = host.parser(text, options=ParserOptions(telemetry=twice))
    assert parser.recognize()
    parser.stream.seek(0)
    assert parser.recognize()
    for name in ("llstar_predictions_total", "llstar_rule_invocations_total"):
        assert twice.metrics.value(name) == 2 * once.metrics.value(name) > 0


def test_threads_sharing_one_telemetry_give_the_serial_totals():
    """Four threads parse a corpus at once into one tallying telemetry;
    each folds its parses under the telemetry's lock, so nothing is
    lost against parsing the same texts one after another."""
    host = load("java").compile()
    texts = corpus(host) * 3

    def parse_share(share, telemetry):
        options = ParserOptions(recover=True, telemetry=telemetry)
        parse_each(lambda text: host.parser(text, options=options).parse(),
                   share)

    serial = ParseTelemetry()
    parse_share(texts, serial)
    shared = ParseTelemetry()
    threads = [threading.Thread(target=parse_share, args=(texts[i::4], shared))
               for i in range(4)]
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    assert shared.profiler.total_events > 0
    assert observed(shared) == observed(serial)
