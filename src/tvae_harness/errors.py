"""The harness's error classes: one per exit code.

DataError (a bad input file, flag or record) exits 1 and AgentError (an
agent that cannot be reached or fails to answer) exits 2.  Anything else,
a builtin included, is a harness bug and exits 3.
"""

from __future__ import annotations


class DataError(Exception):
    """Invalid dataset, sample, trace, flag or agent output."""


class AgentError(Exception):
    """Agent endpoint failed to produce a turn."""
