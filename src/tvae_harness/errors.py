"""The harness's error classes: one per exit code, and one DataError subclass.

DataError (a bad input file, flag or record) exits 1 and AgentError (an
agent that cannot be reached or fails to answer) exits 2.  Anything else,
a builtin included, is a harness bug and exits 3.  ModeInapplicableError
is a DataError that the failure forge raises and catches itself.
"""

from __future__ import annotations


class DataError(Exception):
    """Invalid dataset, sample, trace, flag or agent output."""


class AgentError(Exception):
    """Agent endpoint failed to produce a turn."""


class ModeInapplicableError(DataError):
    """A failure mode that makes no sense for the action kind; the forge
    catches it to redraw the mode."""

    def __init__(self, mode: str, kind: str):
        super().__init__(f"failure mode {mode} not applicable to action kind {kind}")
