"""Module entry point: ``python -m repro <command>``."""

import gc
import sys

from repro.cli import main

if __name__ == "__main__":
    code = main()
    # Interpreter shutdown runs the cyclic garbage collector over every
    # object the command left alive (traces, plans, results): about 0.2 s
    # after a 19-workload grid.  Frozen objects are skipped by it; they are
    # still released, and output still flushed, as the interpreter exits.
    gc.freeze()
    sys.exit(code)
