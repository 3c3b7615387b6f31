"""``python -m fllp`` and the ``fllp`` script: one command per process, with
the cyclic collector off, since reference counting frees all a command
leaves behind.  ``cli.main`` leaves the collector alone for other callers."""

import gc
import sys


def run() -> int:
    gc.disable()
    from .cli import main
    return main()


if __name__ == "__main__":
    sys.exit(run())
