"""``python -m fllp`` and the ``fllp`` script: one command per process, with
the cyclic collector off, since reference counting frees all a command
leaves behind.  The process then ends itself: it flushes stdout and stderr
(output that cannot be written is an error, exit code 1), runs the
``atexit`` handlers and calls ``os._exit``, skipping the interpreter's
teardown: its last collection, unloading every module and freeing the heap.
An uncaught exception takes the interpreter's normal way out.  ``cli.main``
leaves the collector alone and returns to other callers."""

import atexit
import gc
import os
import sys


def run():
    gc.disable()
    from .cli import _errors, main
    try:
        code = main()
    except SystemExit as exc:  # a help screen (0) or a usage error (1)
        code = exc.code
    for stream in filter(None, (sys.stdout, sys.stderr)):  # None: started closed
        try:
            stream.flush()
        except OSError as exc:
            code = _errors(exc)
    atexit._run_exitfuncs()
    os._exit(code)


if __name__ == "__main__":
    run()
