"""Entry point of ``python -m repro <command>`` and the ``repro`` script."""

import gc
import sys

from repro.cli import main


def run() -> int:
    """Run the command named on the command line; return its exit code."""
    code = main()
    # Interpreter shutdown runs the cyclic garbage collector over every
    # object the command left alive (traces, plans, results): about 0.2 s
    # after a 19-workload grid.  Frozen objects are skipped by it; they are
    # still released, and output still flushed, as the interpreter exits.
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
