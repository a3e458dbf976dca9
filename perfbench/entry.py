"""Child process of the benchmark: import nocosim from this checkout and run it.

    python3 perfbench/entry.py setup
        time ``import nocosim`` in this fresh interpreter and print it, with
        the environment the program sees, as one JSON line
    python3 perfbench/entry.py run [--spans PATH] -- <nocosim CLI arguments>
        call ``nocosim.cli.main`` with the arguments and exit with its code;
        with ``--spans``, trace the layers and write the spans to PATH

The program is imported from ``src/`` of the checkout that holds this file,
never from an installed copy.  Nothing in the environment is changed.
"""

import json
import os
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _import_nocosim():
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import nocosim
    elapsed = time.perf_counter() - t0
    where = Path(nocosim.__file__).resolve().parent.parent
    if where != SRC:
        raise SystemExit(f"nocosim was imported from {where}, not from {SRC}")
    return elapsed


def _environment() -> dict:
    import multiprocessing

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')} "
                f"({blas.get('openblas configuration', 'n/a')})",
        "mp_start_method": multiprocessing.get_start_method(),
        **{var: os.environ.get(var, "unset") for var in _THREAD_VARS},
    }


def main(argv) -> int:
    if argv[:1] == ["setup"]:
        elapsed = _import_nocosim()
        print(json.dumps({"import_s": elapsed, "env": _environment()}))
        return 0
    if argv[:1] != ["run"] or "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    sep = argv.index("--")
    options, cli_args = argv[1:sep], argv[sep + 1:]
    spans_path = options[1] if options[:1] == ["--spans"] else None
    _import_nocosim()
    from nocosim import cli

    if spans_path is None:
        return cli.main(cli_args)
    from spans import Tracer, install

    tracer = Tracer(spans_path)
    absent = install(tracer)
    code = cli.main(cli_args)  # install() rebound cli.main to its wrapper
    tracer.dump(absent)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
