"""``llstar`` — analyze grammars, parse inputs, profile decisions.

Subcommands::

    llstar analyze  grammar.g [--max-k N] [--dot DIR]
    llstar parse    grammar.g input.txt [--rule R] [--tree] [--trace]
                    [--metrics-out FILE]
    llstar batch    grammar.g inputs... [--jobs N] [--metrics-out FILE]
    llstar profile  grammar.g input.txt [--rule R] [--json]
                    [--metrics-out FILE]
    llstar codegen  grammar.g [-o parser.py] [--class-name NAME]
    llstar tokens   grammar.g input.txt
    llstar edit-session grammar.g input.txt [--rule R] [--no-recover]
    llstar serve    [grammar.g ...] [--suite] [--port P] [--jobs N]
                    [--cache DIR] [--stdio]

``analyze`` prints a Table-1-style decision summary; ``profile`` replays
an input under a telemetry and prints the Table-3/4 runtime statistics
from its per-decision store; ``parse --trace`` prints the telemetry's
transcript.  ``batch`` parses a whole corpus over a pool of worker
processes, each warm-started once from the compiled artifact (see
:mod:`repro.batch`), and reports aggregate throughput plus merged
metrics.  ``--metrics-out`` exports the telemetry registry (DFA hit
rate, realized-k histogram, cache/recovery counters) as JSON, or as
Prometheus text when the file ends in ``.prom`` (override with
``--metrics-format``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.analysis.construction import AnalysisOptions
from repro.analysis.decisions import BACKTRACK, CYCLIC, FIXED
from repro.api import compile_grammar
from repro.atn.dot import dfa_to_dot
from repro.codegen import generate_python
from repro.exceptions import LLStarError
from repro.runtime.parser import ParserOptions
from repro.runtime.telemetry import ParseTelemetry, TraceTelemetry


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="llstar",
        description="LL(*) grammar analysis and parsing "
                    "(reproduction of Parr & Fisher, PLDI 2011)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("grammar", help="path to a .g grammar file")
        p.add_argument("--max-recursion", type=int, default=4, metavar="M",
                       help="closure recursion bound m (default 4)")
        p.add_argument("--cache", metavar="DIR",
                       help="compiled-artifact cache directory: warm starts "
                            "skip static analysis (safe to delete anytime)")

    def add_metrics(p):
        p.add_argument("--metrics-out", metavar="FILE",
                       help="export telemetry metrics to FILE (JSON, or "
                            "Prometheus text for .prom files)")
        p.add_argument("--metrics-format", choices=["json", "prom"],
                       help="force the --metrics-out format "
                            "(default: by file extension)")

    p = sub.add_parser("analyze", help="static LL(*) analysis summary")
    add_common(p)
    p.add_argument("--dot", metavar="DIR",
                   help="write one DFA .dot file per decision into DIR")

    p = sub.add_parser("parse", help="parse an input file")
    add_common(p)
    p.add_argument("input", help="path to input text")
    p.add_argument("--rule", help="start rule (default: first parser rule)")
    p.add_argument("--tree", action="store_true", help="print the parse tree")
    p.add_argument("--trace", action="store_true", help="print a rule trace")
    p.add_argument("--recover", action="store_true",
                   help="recover from syntax errors and report them all "
                        "(exit status stays nonzero)")
    add_metrics(p)

    p = sub.add_parser("batch",
                       help="parse a corpus of files over a worker pool")
    add_common(p)
    p.add_argument("inputs", nargs="+", help="input files (the corpus)")
    p.add_argument("--rule", help="start rule (default: first parser rule)")
    p.add_argument("--jobs", type=int, metavar="N",
                   help="worker processes (default: CPU count; 0 = inline)")
    p.add_argument("--chunk-size", type=int, metavar="C",
                   help="inputs per dispatched chunk (default: balanced)")
    p.add_argument("--recover", action="store_true",
                   help="recover from syntax errors per input instead of "
                        "failing the input at the first error")
    p.add_argument("--deadline", type=float, metavar="S",
                   help="per-input wall-clock budget in seconds")
    p.add_argument("--defensive", action="store_true",
                   help="apply the full defensive per-input budget "
                        "(steps, depth, recoveries, 10s deadline)")
    p.add_argument("--json", action="store_true",
                   help="print the corpus report as one JSON document")
    add_metrics(p)

    p = sub.add_parser("profile", help="parse and report decision statistics")
    add_common(p)
    p.add_argument("input")
    p.add_argument("--rule")
    p.add_argument("--by-decision", action="store_true",
                   help="per-decision event/lookahead breakdown")
    p.add_argument("--json", action="store_true",
                   help="print the aggregates (and metrics) as one JSON "
                        "document instead of tables")
    p.add_argument("--trace-rules", action="store_true",
                   help="also time every rule invocation as a span "
                        "(slower; enables per-rule latency histograms)")
    add_metrics(p)

    p = sub.add_parser("sets", help="print FIRST/FOLLOW sets")
    add_common(p)
    p.add_argument("--rule", help="limit to one rule")

    p = sub.add_parser("codegen", help="generate a Python parser module")
    add_common(p)
    p.add_argument("-o", "--output", help="output file (default stdout)")
    p.add_argument("--class-name", help="generated class name")

    p = sub.add_parser("tokens", help="dump the token stream for an input")
    add_common(p)
    p.add_argument("input")

    p = sub.add_parser(
        "edit-session",
        help="interactive incremental reparsing over a JSON-lines edit "
             "protocol (one op per stdin line, one result per stdout line)")
    add_common(p)
    p.add_argument("input", help="initial document text file")
    p.add_argument("--rule", help="start rule (default: grammar start rule)")
    p.add_argument("--no-recover", dest="recover", action="store_false",
                   help="raise on syntax errors instead of repairing "
                        "(default: recover, editor-style)")

    p = sub.add_parser(
        "rewrite",
        help="parse an input and re-emit it through the token-stream "
             "rewriter (byte-exact outside edits)")
    add_common(p)
    p.add_argument("input", help="path to input text")
    p.add_argument("--rule", help="start rule (default: first parser rule)")
    p.add_argument("--rename", metavar="OLD=NEW", action="append", default=[],
                   help="rename every non-literal token spelled OLD to NEW "
                        "(identifier refactoring; repeatable)")
    p.add_argument("-o", "--output",
                   help="output file (default stdout)")

    p = sub.add_parser("explain",
                       help="narrate a decision's lookahead-DFA walk on input")
    add_common(p)
    p.add_argument("input", help="input text file positioned at the decision")
    p.add_argument("--decision", type=int,
                   help="decision number (default: all decisions of --rule)")
    p.add_argument("--rule", help="explain every decision of this rule")

    p = sub.add_parser("report",
                       help="regenerate the paper's Tables 1-4 on the "
                            "built-in benchmark suite")
    p.add_argument("--units", type=int, default=30,
                   help="workload size per grammar (default 30)")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--grammars", nargs="*", metavar="NAME",
                   help="subset of suite grammars (default: all six)")

    p = sub.add_parser("serve",
                       help="run a long-lived parse service (HTTP or stdio) "
                            "with admission control, per-grammar circuit "
                            "breakers, and graceful degradation")
    p.add_argument("grammars", nargs="*", metavar="GRAMMAR",
                   help=".g grammar files to register (name = basename)")
    p.add_argument("--suite", action="store_true",
                   help="also register the built-in benchmark suite grammars")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="listen port (default 0 = ephemeral; the bound "
                        "port is printed on the listening line)")
    p.add_argument("--jobs", type=int, default=0, metavar="N",
                   help="parse worker processes (default 0 = inline "
                        "threads); workers boot each grammar from the "
                        "artifact image the server publishes")
    p.add_argument("--cache", metavar="DIR",
                   help="artifact-cache directory: compiled grammars and "
                        "the images pool workers boot from (default: a "
                        "private temporary directory when --jobs > 0)")
    p.add_argument("--warm", action="store_true",
                   help="compile every registered grammar at boot instead "
                        "of on first request")
    p.add_argument("--stdio", action="store_true",
                   help="serve JSON-lines over stdio instead of HTTP")
    p.add_argument("--max-concurrency", type=int, default=8, metavar="N",
                   help="requests parsing at once (default 8)")
    p.add_argument("--queue-limit", type=int, default=32, metavar="N",
                   help="waiting room beyond that before shedding with "
                        "429 (default 32)")
    p.add_argument("--max-hosts", type=int, metavar="N",
                   help="resident compiled grammars (LRU eviction beyond)")
    p.add_argument("--deadline-ceiling", type=float, default=30.0,
                   metavar="S", help="hard cap on any request deadline")
    p.add_argument("--default-deadline", type=float, default=10.0,
                   metavar="S", help="deadline when the client sends none")
    p.add_argument("--breaker-threshold", type=int, default=5, metavar="N",
                   help="consecutive resource failures that open a "
                        "grammar's circuit (default 5)")
    p.add_argument("--breaker-cooldown", type=float, default=5.0,
                   metavar="S", help="seconds a circuit stays open before "
                                     "half-open probing (default 5)")
    p.add_argument("--drain-timeout", type=float, default=10.0, metavar="S",
                   help="bound on the SIGTERM graceful drain (default 10)")

    p = sub.add_parser("fuzz",
                       help="generate sentences from a grammar and "
                            "differentially parse them with every backend")
    p.add_argument("grammar", nargs="?",
                   help="path to a .g grammar file (or use --suite)")
    p.add_argument("--suite", action="store_true",
                   help="fuzz the built-in benchmark suite grammars")
    p.add_argument("--grammars", nargs="*", metavar="NAME",
                   help="subset of suite grammars with --suite")
    p.add_argument("--n", type=int, default=100, metavar="N",
                   help="sentences per grammar (default 100)")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--max-depth", type=int, default=16, metavar="D",
                   help="rule-depth budget before the generator closes "
                        "derivations (default 16)")
    p.add_argument("--max-tokens", type=int, default=120, metavar="T",
                   help="token budget per sentence (default 120)")
    p.add_argument("--backends", metavar="LIST",
                   help="comma-separated backend subset (default: all of "
                        "interp, codegen, llk, packrat, glr, earley)")
    p.add_argument("--mutate", type=float, default=0.0, metavar="RATE",
                   help="also corrupt RATE * N sentences for negative "
                        "testing (default 0)")
    p.add_argument("--jobs", type=int, default=0, metavar="N",
                   help="worker processes for the batch cross-check "
                        "(default 0 = inline)")
    p.add_argument("--no-batch", action="store_true",
                   help="skip the BatchEngine cross-check pass")
    p.add_argument("--no-minimize", action="store_true",
                   help="report failing sentences without token-deletion "
                        "minimization")
    p.add_argument("--json", action="store_true",
                   help="print one JSON document per run instead of text")

    p = sub.add_parser("cache",
                       help="inspect a compiled-artifact cache directory "
                            "(.llt images and their integrity)")
    p.add_argument("dir", help="artifact cache directory")
    p.add_argument("--verify", action="store_true",
                   help="exit 1 if any .llt image fails to decode "
                        "(magic/version/checksum/section bounds)")
    p.add_argument("--json", action="store_true",
                   help="print one JSON document instead of a table")
    return parser


def _load_host(args, telemetry=None):
    with open(args.grammar) as f:
        text = f.read()
    options = AnalysisOptions(max_recursion_depth=args.max_recursion)
    return compile_grammar(text, options=options,
                           cache_dir=getattr(args, "cache", None),
                           telemetry=telemetry)


def _read_input(path: str) -> str:
    with open(path) as f:
        return f.read()


def _telemetry_for(args):
    """A ParseTelemetry when the invocation asked for metrics, else None."""
    if getattr(args, "metrics_out", None) or getattr(args, "json", False):
        return ParseTelemetry(trace_rules=getattr(args, "trace_rules", False))
    return None


def _write_metrics(telemetry, args) -> None:
    """``telemetry`` is anything exporting ``to_prometheus`` and
    ``to_json_text`` — a ParseTelemetry or a bare MetricsRegistry."""
    path = args.metrics_out
    if not path:
        return
    fmt = args.metrics_format
    if fmt is None:
        fmt = "prom" if path.endswith((".prom", ".txt")) else "json"
    with open(path, "w") as f:
        if fmt == "prom":
            f.write(telemetry.to_prometheus())
        else:
            f.write(telemetry.to_json_text() + "\n")
    print("wrote %s metrics to %s" % (fmt, path), file=sys.stderr)


def cmd_analyze(args) -> int:
    host = _load_host(args)
    result = host.analysis
    print(result.summary())
    print()
    print("%-6s %-20s %-10s %-12s %s" % ("dec", "rule", "kind", "category", "k"))
    for r in result.classified():
        print("%-6d %-20s %-10s %-12s %s"
              % (r.decision, r.rule_name, r.kind, r.category,
                 r.fixed_k if r.fixed_k is not None else "-"))
    if args.dot:
        os.makedirs(args.dot, exist_ok=True)
        for r in result.records:
            path = os.path.join(args.dot, "decision_%d.dot" % r.decision)
            with open(path, "w") as f:
                f.write(dfa_to_dot(result.decision_table(r.decision),
                                   host.grammar.vocabulary))
        print("\nwrote %d .dot files to %s" % (len(result.records), args.dot))
    return 0


def cmd_parse(args) -> int:
    telemetry = TraceTelemetry() if args.trace else _telemetry_for(args)
    host = _load_host(args, telemetry=telemetry)
    options = ParserOptions(recover=args.recover, telemetry=telemetry)
    text = _read_input(args.input)
    parser = host.parser(text, options=options)
    try:
        tree = parser.parse(args.rule)
    finally:
        # A parse that died mid-flight still leaves its metrics behind —
        # that is the whole point of the observability layer.
        if telemetry is not None:
            _write_metrics(telemetry, args)
    if args.trace:
        print(telemetry.transcript())
    if args.tree and tree is not None:
        print(tree.to_sexpr())
    if parser.errors:
        from repro.tools.explain import token_excerpt

        # One compiler-style line per recovered error — with the exact
        # source line and a caret underline from the offending token's
        # char offsets — then fail the run: a parse that needed repairs
        # is not a clean parse.
        for error in parser.errors:
            print("%s:%s: %s" % (args.input, error.position, error),
                  file=sys.stderr)
            token = getattr(error, "token", None)
            if token is not None:
                excerpt = token_excerpt(text, token, prefix="    ")
                if excerpt:
                    print(excerpt, file=sys.stderr)
        print("%d syntax error(s) in %s" % (len(parser.errors), args.input),
              file=sys.stderr)
        return 1
    if not args.tree:
        print("ok")
    return 0


def cmd_batch(args) -> int:
    from repro.batch import BatchEngine
    from repro.runtime.budget import ParserBudget

    with open(args.grammar) as f:
        text = f.read()
    budget = None
    if args.defensive:
        budget = ParserBudget.defensive(args.deadline or 10.0)
    elif args.deadline is not None:
        budget = ParserBudget(deadline_seconds=args.deadline)
    engine = BatchEngine(
        text,
        options=AnalysisOptions(max_recursion_depth=args.max_recursion),
        jobs=args.jobs, chunk_size=args.chunk_size, rule_name=args.rule,
        budget=budget, recover=args.recover, cache_dir=args.cache)
    report = engine.run_paths(args.inputs)
    if args.metrics_out:
        # MetricsRegistry exports the same way ParseTelemetry does.
        _write_metrics(report.metrics, args)
    if args.json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(report.summary())
    return 1 if report.failures else 0


def cmd_profile(args) -> int:
    from repro.tools.report import profile_tables, profile_to_dict

    telemetry = _telemetry_for(args) or ParseTelemetry(
        trace_rules=args.trace_rules)
    host = _load_host(args, telemetry=telemetry)
    host.parse(_read_input(args.input), rule_name=args.rule,
               options=ParserOptions(telemetry=telemetry))
    report = telemetry.report(host.analysis)
    if args.metrics_out:
        _write_metrics(telemetry, args)
    if args.json:
        print(json.dumps(profile_to_dict(report, telemetry=telemetry),
                         indent=2, sort_keys=True))
        return 0
    print(report.summary())
    print("dfa hit rate: %.2f%%" % (100.0 * telemetry.dfa_hit_rate))
    print()
    print(profile_tables(report, name=os.path.basename(args.input)))
    print()
    fixed = host.analysis.count(FIXED)
    cyclic = host.analysis.count(CYCLIC)
    back = host.analysis.count(BACKTRACK)
    print("static decisions: %d fixed, %d cyclic, %d backtrack"
          % (fixed, cyclic, back))
    if args.by_decision:
        print()
        print("%-6s %-20s %8s %8s %8s %10s" % (
            "dec", "rule", "events", "avg k", "max k", "backtracks"))
        for row in profile_to_dict(report)["per_decision"]:
            print("%-6d %-20s %8d %8.2f %8d %10d" % (
                row["decision"], host.analysis.records[row["decision"]].rule_name,
                row["events"], row["avg_k"], row["max_k"], row["backtracks"]))
    return 0


def cmd_sets(args) -> int:
    host = _load_host(args)
    sets = host.analysis.grammar_sets()
    rules = ([args.rule] if args.rule
             else [r.name for r in host.grammar.parser_rules
                   if not r.name.startswith("synpred")])
    for name in rules:
        print(sets.describe(name))
        print()
    return 0


def cmd_codegen(args) -> int:
    host = _load_host(args)
    source = generate_python(host.analysis, class_name=args.class_name)
    if args.output:
        with open(args.output, "w") as f:
            f.write(source)
        print("wrote %s (%d lines)" % (args.output, len(source.splitlines())))
    else:
        sys.stdout.write(source)
    return 0


def cmd_tokens(args) -> int:
    host = _load_host(args)
    stream = host.tokenize(_read_input(args.input))
    for token in stream.tokens():
        print("%-4d %-16s %r" % (token.index,
                                 host.grammar.vocabulary.name_of(token.type),
                                 token.text))
    return 0


def cmd_edit_session(args) -> int:
    """JSON-lines edit protocol over an :class:`EditSession`.

    Ops (one JSON object per stdin line)::

        {"op": "edit", "start": N, "end": N, "text": "..."}
        {"op": "check"}   # reparse from scratch, compare trees
        {"op": "tree"}    # current spanned s-expression
        {"op": "text"}    # current document text

    One JSON result per line on stdout; every result carries ``ok``.
    Exit status is 1 if any op failed (including a check mismatch).
    """
    from repro.runtime.incremental import EditSession

    host = _load_host(args)
    session = EditSession(host, _read_input(args.input),
                          rule_name=args.rule, recover=args.recover)
    failed = False
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        request = json.loads(line)
        op = request.get("op")
        result = {"op": op}
        try:
            if op == "edit":
                session.edit(request["start"], request["end"],
                             request.get("text", ""))
                result["ok"] = True
                result["errors"] = len(session.errors)
                result["stats"] = session.stats.to_dict()
            elif op == "check":
                options = ParserOptions(recover=args.recover)
                cold = host.parse(session.text, rule_name=args.rule,
                                  options=options)
                cold_sexpr = cold.to_spanned_sexpr() if cold else None
                result["ok"] = session.to_spanned_sexpr() == cold_sexpr
                result["reused_nodes"] = (session.stats.reused_nodes
                                          if session.stats else 0)
                result["reuse_rate"] = (round(session.stats.reuse_rate, 4)
                                        if session.stats else 0.0)
            elif op == "tree":
                result["ok"] = True
                result["tree"] = session.to_spanned_sexpr()
            elif op == "text":
                result["ok"] = True
                result["text"] = session.text
            else:
                result["ok"] = False
                result["error"] = "unknown op %r" % op
        except (LLStarError, ValueError) as e:
            result["ok"] = False
            result["error"] = str(e)
        if not result["ok"]:
            failed = True
        print(json.dumps(result), flush=True)
    return 1 if failed else 0


def cmd_rewrite(args) -> int:
    from repro.runtime.rewriter import TokenStreamRewriter
    from repro.runtime.walker import ParseTreeListener, ParseTreeWalker

    renames = []
    for spec in args.rename:
        old, sep, new = spec.partition("=")
        if not sep or not old or not new:
            print("error: --rename expects OLD=NEW, got %r" % spec,
                  file=sys.stderr)
            return 2
        renames.append((old, new))

    host = _load_host(args)
    text = _read_input(args.input)
    stream = host.tokenize(text)
    tree = host.parse(stream, rule_name=args.rule)
    rewriter = TokenStreamRewriter(stream)

    if renames:
        vocabulary = host.grammar.vocabulary

        class Renamer(ParseTreeListener):
            # Spelling-based rename over matched leaves: literal tokens
            # (display name 'so-quoted') are keywords/operators, never
            # rename targets, whatever they spell.
            def visit_token(self, node):
                token = node.token
                if vocabulary.name_of(token.type).startswith("'"):
                    return
                for old, new in renames:
                    if token.text == old:
                        rewriter.replace(token.index, token.index, new)
                        return

        ParseTreeWalker.DEFAULT.walk(Renamer(), tree)

    rewritten = rewriter.get_text()
    if args.output:
        with open(args.output, "w") as f:
            f.write(rewritten)
        print("wrote %s" % args.output, file=sys.stderr)
    else:
        sys.stdout.write(rewritten)
    return 0


def cmd_report(args) -> int:
    from repro.tools.report import build_report

    print(build_report(units=args.units, seed=args.seed,
                       names=args.grammars or None))
    return 0


def cmd_explain(args) -> int:
    from repro.tools.explain import explain_all_matching, explain_prediction

    host = _load_host(args)
    stream = host.tokenize(_read_input(args.input))
    if args.decision is not None:
        print(explain_prediction(host.analysis, args.decision, stream).render())
        return 0
    traces = explain_all_matching(host.analysis, stream, rule_name=args.rule)
    for trace in traces:
        print(trace.render())
        print()
    return 0


def cmd_cache(args) -> int:
    from repro.cache import MappedArtifact

    try:
        names = sorted(os.listdir(args.dir))
    except OSError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    entries = []
    corrupt = 0
    for name in names:
        if not name.endswith(".llt") or name.startswith("."):
            continue
        path = os.path.join(args.dir, name)
        entry = {"key": name[:-len(".llt")], "llt_bytes": os.path.getsize(path),
                 "llt_status": "ok", "grammar_source": False}
        try:
            mapped = MappedArtifact(path)
        except Exception as e:
            corrupt += 1
            entry["llt_status"] = "corrupt: %s" % e
        else:
            entry["grammar_source"] = True
            mapped.close()
        entries.append(entry)
    if args.json:
        print(json.dumps({"dir": args.dir, "entries": entries,
                          "corrupt": corrupt}, indent=2))
    else:
        if not entries:
            print("no cache entries in %s" % args.dir)
        for e in entries:
            print("%s  llt=%s  %s%s" % (
                e["key"][:16], e["llt_bytes"], e["llt_status"],
                " +source" if e["grammar_source"] else ""))
        if corrupt:
            print("%d corrupt image(s)" % corrupt, file=sys.stderr)
    return 1 if (args.verify and corrupt) else 0


def cmd_fuzz(args) -> int:
    from repro.fuzz.differential import DifferentialRunner

    if bool(args.grammar) == bool(args.suite):
        print("error: pass exactly one of <grammar> or --suite",
              file=sys.stderr)
        return 2
    backends = None
    if args.backends:
        backends = [b.strip() for b in args.backends.split(",") if b.strip()]
    targets = []
    if args.suite:
        from repro.grammars import PAPER_ORDER, load

        for name in (args.grammars or PAPER_ORDER):
            targets.append((name, load(name).grammar_text))
    else:
        with open(args.grammar) as f:
            targets.append((None, f.read()))
    reports = []
    for name, text in targets:
        runner = DifferentialRunner(text, name=name, backends=backends)
        reports.append(runner.run_corpus(
            n=args.n, seed=args.seed, max_depth=args.max_depth,
            max_tokens=args.max_tokens, mutate=args.mutate,
            minimize=not args.no_minimize, batch=not args.no_batch,
            jobs=args.jobs))
    if args.json:
        print(json.dumps([r.to_json() for r in reports], indent=2))
    else:
        for report in reports:
            print(report.summary())
    failed = sum(len(r.disagreements) for r in reports)
    if failed:
        print("FAILED: %d disagreement(s) across %d grammar(s)"
              % (failed, len(reports)), file=sys.stderr)
        return 1
    if not args.json:
        print("ok: 0 disagreements across %d grammar(s), %d sentence(s)"
              % (len(reports), sum(r.corpus_size for r in reports)))
    return 0


def cmd_serve(args) -> int:
    import asyncio
    import signal

    from repro.serve import (ParseService, ServiceConfig, serve_http,
                             serve_stdio)

    if not args.grammars and not args.suite:
        print("error: register at least one grammar (paths and/or --suite)",
              file=sys.stderr)
        return 2
    config = ServiceConfig(
        jobs=args.jobs, max_concurrency=args.max_concurrency,
        queue_limit=args.queue_limit,
        deadline_ceiling=args.deadline_ceiling,
        default_deadline=args.default_deadline,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
        drain_deadline=args.drain_timeout,
        cache_dir=args.cache, max_hosts=args.max_hosts)
    service = ParseService(config=config)
    for path in args.grammars:
        with open(path) as f:
            name = os.path.splitext(os.path.basename(path))[0]
            service.registry.register(name, f.read())
    if args.suite:
        from repro.grammars import PAPER_ORDER, load

        for name in PAPER_ORDER:
            service.registry.register(name, load(name).grammar_text)

    async def run() -> int:
        if args.warm:
            for name in service.registry.names():
                await service.registry.host(name)
            print("warmed %d grammar(s)" % len(service.registry.names()),
                  file=sys.stderr)
        if args.stdio:
            served = await serve_stdio(service)
            print("served %d request(s)" % served, file=sys.stderr)
            return 0
        server, accept_task = await serve_http(
            service, host=args.host, port=args.port)
        # The smoke harness greps this exact line for the bound port.
        print("llstar serve listening on http://%s:%d (grammars: %s)"
              % (server.host, server.port,
                 ", ".join(service.registry.names())), flush=True)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, stop.set)
        await stop.wait()
        print("llstar serve: draining (bound %.1fs)" % args.drain_timeout,
              file=sys.stderr, flush=True)
        drained = await server.shutdown(args.drain_timeout)
        accept_task.cancel()
        print("llstar serve: %s"
              % ("drained cleanly" if drained else "drain deadline hit"),
              file=sys.stderr, flush=True)
        return 0 if drained else 1

    return asyncio.run(run())


_COMMANDS = {
    "serve": cmd_serve,
    "report": cmd_report,
    "fuzz": cmd_fuzz,
    "explain": cmd_explain,
    "analyze": cmd_analyze,
    "batch": cmd_batch,
    "parse": cmd_parse,
    "profile": cmd_profile,
    "sets": cmd_sets,
    "codegen": cmd_codegen,
    "tokens": cmd_tokens,
    "edit-session": cmd_edit_session,
    "rewrite": cmd_rewrite,
    "cache": cmd_cache,
}


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except LLStarError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    except OSError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
