"""``llstar serve`` with spans recorded: the server half of a traced run.

Usage: ``python3 perfbench/serve_traced.py OUT.json serve ARGS...``.
Installs the tracer, runs the ``llstar`` CLI in this process, and when
the server has drained writes the span totals, the GC pauses after the
server started listening, and the live objects and DFA states at that
moment to ``OUT.json``.  Forked pool workers run untraced: their time
comes back in each response's ``elapsed`` field.
"""

from __future__ import annotations

import gc
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402


def main() -> int:
    harness.require_program()
    import tracing

    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer("serve")
    tracer.install()
    os.register_at_fork(after_in_child=tracer.uninstall)

    import repro.serve
    from repro.tools import cli

    listen = repro.serve.serve_http

    async def serve_http(service, *args, **kwargs):
        gc.collect()
        tracer.live_after_setup = len(gc.get_objects())
        tracer.dfa_states = sum(
            r.table.n_states for host in service.registry._hosts.values()
            for r in host.analysis.records)
        tracer.phase("run")
        return await listen(service, *args, **kwargs)

    repro.serve.serve_http = serve_http
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
    spans = {}
    for per_tag in tracer.spans.values():
        for name, (n, total, own) in per_tag.items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            acc[0] += n
            acc[1] += total
            acc[2] += own
    with open(out_path, "w") as f:
        json.dump({"spans": spans, "gc_run": tracer.gc.get("run", [0.0, 0, 0]),
                   "live_after_setup": tracer.live_after_setup,
                   "dfa_states": tracer.dfa_states}, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
