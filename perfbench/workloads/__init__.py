"""The benchmark's workloads, each a closed loop of equally sized jobs.

A workload module defines ``Workload``, a subclass of `Base`.  The harness
calls ``setup()`` once, then per job ``prepare(i)`` (input generation,
untimed), ``run(inputs, tracer)`` (timed) and ``check(inputs, outputs)``
(untimed).  Workload modules import pshlab at module level, so that import
counts in the set-up time of the workload that needs it and of no other.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = {
    "exact-sequence": "workloads.exact_sequence",
    "oracle-crosscheck": "workloads.oracle_crosscheck",
    "bergman-crosscheck": "workloads.bergman_crosscheck",
    "cli-cold": "workloads.cli_cold",
}


def load_workload(name: str):
    return importlib.import_module(WORKLOADS[name]).Workload


@dataclass
class Tally:
    """Outcome of checking one job: operations attempted, operations that
    hit a known fault, and descriptions of any other wrong output."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str, known_fault: bool = False) -> None:
        """Record one checked operation."""
        self.attempted += 1
        if ok:
            return
        if known_fault:
            self.failed += 1
        else:
            self.problems.append(what)


class Base:
    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        pass

    def prepare(self, index: int):
        raise NotImplementedError

    def run(self, inputs, tracer):
        raise NotImplementedError

    def check(self, inputs, outputs) -> Tally:
        raise NotImplementedError

    def trace_extras(self, inputs, tracer) -> None:
        """Untimed measurements after a traced job."""

    def peak_rss_kb(self) -> int | None:
        """Peak RSS to report, or None for the harness's own process."""
        return None

    def cli_metrics(self) -> dict[str, float]:
        """The cli.* per-layer metrics, from one untraced CLI session."""
        from workloads.cli_cold import measure_session

        return measure_session(self.workdir, self.seed)
