"""Process entry of the command line: `python -m bsl` and the `bsl` script."""

import gc
import sys

from .cli import main


def run() -> int:
    """Run the command line on sys.argv and return its exit code.

    The process exits right after, so the heap is frozen first: the
    collection the interpreter runs at shutdown then skips the objects
    numpy and scipy made at import, which would cost tens of
    milliseconds to walk and are freed with the process anyway.  Only
    this entry freezes; `cli.main` serves callers that run many commands
    in one process, where a freeze would keep their cyclic garbage.
    """
    rc = main()
    gc.freeze()
    return rc


if __name__ == "__main__":
    sys.exit(run())
