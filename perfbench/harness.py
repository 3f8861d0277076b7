"""Loading the library from the checkout and running one CLI job in memory."""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One BLAS/OpenMP thread: the benchmark is a single-threaded closed loop.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_threads(env=os.environ) -> dict:
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def child_env() -> dict:
    """Environment for fresh interpreters: pinned threads, the checkout's ``src`` first."""
    env = pin_threads(dict(os.environ))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def fail(message: str):
    """Stop without a result: message to stderr, exit code 2."""
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_cli():
    """``kickedqubit.cli`` from this checkout's ``src``; exits 2 when it is missing."""
    if not (SRC / "kickedqubit" / "cli.py").is_file():
        fail(f"no library at {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import kickedqubit.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        fail(f"imported kickedqubit from {cli.__file__}, not from {SRC}")
    return cli


def run_job(main, argv) -> tuple[float, int, str]:
    """(wall seconds, exit code, captured stdout) of ``main(argv)``; nothing touches disk."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            rc = main(list(argv))
        except SystemExit as exc:  # argparse rejects bad flags this way
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an uncaught error is a failed job, not a crashed benchmark
            traceback.print_exc(file=sys.__stderr__)
            rc = -1
        elapsed = perf_counter() - start
    return elapsed, rc, out.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()
