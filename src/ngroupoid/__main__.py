"""Process entry of ``python -m ngroupoid`` and of the ``ngroupoid`` command.

Each invocation is a one-shot process: the cyclic collector stays off (it
would find a few hundred objects, whatever the input), and once the output is
flushed the process ends by ``os._exit``, skipping the interpreter's teardown.
In-process callers of ``cli.main`` get neither.
"""

import gc
import os
import sys


def main() -> None:
    gc.disable()
    from .cli import main as run  # after gc.disable(): importing numpy allocates too
    code = run()  # an escaping exception reaches the interpreter: traceback, exit 1
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:  # e.g. a closed pipe: let the interpreter report it
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    main()
