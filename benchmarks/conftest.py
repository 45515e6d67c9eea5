"""Benchmark session hooks: print every emitted table in the summary."""

from __future__ import annotations


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    del exitstatus, config
    from common import EMITTED

    if not EMITTED:
        return
    terminalreporter.ensure_newline()
    terminalreporter.section("paper tables & figures (reproduced)")
    for artifact in EMITTED:
        terminalreporter.write_line("")
        for line in artifact.render().splitlines():
            terminalreporter.write_line(line)
    terminalreporter.write_line("")
    terminalreporter.write_line("JSON artifacts: benchmarks/results/*.json")
