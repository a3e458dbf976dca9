"""Deterministic simulator for register gates driven by frequent noisy
actuator operations, with distillation and threshold analysis on top."""

__version__ = "0.1.0"

# the CLI and the argparse and hashlib it needs load only with ``nocosim.cli``
from . import channels, faulttol, gates, qcore, zeno  # noqa: F401
