"""Pseudo-online evaluation and reward harness for verification-driven GUI agents.

The package root holds only `__version__`; import names from their modules
(`tvae_harness.cli`, `tvae_harness.sim_engine`, ...), so a command loads only
the modules it runs.
"""

__version__ = "0.1.0"
