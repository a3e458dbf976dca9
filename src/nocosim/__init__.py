"""Deterministic simulator for register gates driven by frequent noisy
actuator operations, with distillation and threshold analysis on top."""

import os

# One BLAS thread, set before the submodules below first load numpy.  A cycle
# has at most four qubits, so the largest product is 256x256 by 256x16.  There
# a second OpenBLAS thread cut rzz_prime's wall time by at most a fifth, doubled
# its CPU time by busy-waiting, and made it 2.5x slower while another process
# held the other core (2-core x86 box).  A value the user exported wins, and
# pool workers inherit it; a host that loaded numpy first keeps its threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"

# the CLI and the argparse it needs load only with ``nocosim.cli``
from . import channels, faulttol, gates, qcore, zeno  # noqa: E402, F401
