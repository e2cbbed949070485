"""SQL workload: drive the TSQL benchmark grammar like a downstream tool.

Parses a generated batch of SQL, profiles the decisions (the Table 3
measurement, as a library call), and statically extracts every table
name each statement touches — the kind of lightweight analysis an IDE
or a lint rule would build on the parse tree.

Run:  python examples/sql_tables.py
"""

from repro.grammars import load
from repro.runtime.parser import ParserOptions
from repro.runtime.telemetry import ParseTelemetry
from repro.runtime.trees import RuleNode


def tables_touched(statement: RuleNode):
    """Table names under FROM / INTO / UPDATE / INSERT INTO / DELETE."""
    names = set()
    for node in statement.walk():
        if isinstance(node, RuleNode) and node.rule_name == "table_name":
            names.add(".".join(t.token.text for t in node.child_tokens()
                               if t.token.text != "."))
    return sorted(names)


def main():
    bench = load("sql")
    host = bench.compile()

    batch = bench.generate_program(12, seed=2026)
    telemetry = ParseTelemetry()
    tree = host.parse(batch, options=ParserOptions(telemetry=telemetry))

    statements = tree.child_rules("sql_statement")
    print("parsed %d SQL statements" % len(statements))
    for i, stmt in enumerate(statements):
        touched = tables_touched(stmt)
        kind = stmt.children[0].rule_name if stmt.child_rules() else "(empty)"
        print("  #%-2d %-18s tables: %s" % (i + 1, kind, ", ".join(touched) or "-"))

    report = telemetry.report(host.analysis)
    print()
    print("decision profile for this batch (Table 3 columns):")
    print("  events=%d  avg k=%.2f  max k=%d  backtracked=%.2f%%"
          % (report.total_events, report.avg_k, report.max_k,
             report.backtrack_event_percent))
    assert report.avg_k < 2.0
    print("sql ok")


if __name__ == "__main__":
    main()
