"""Process entry of ``python -m ngroupoid`` and of the ``ngroupoid`` command.

Each invocation is a one-shot process: the cyclic collector stays off (it
would find a few hundred objects, whatever the input), a closed stdout ends it
quietly by SIGPIPE, as it ends any Unix filter, and once the output is flushed
it ends by ``os._exit``, skipping the teardown.  In-process callers of ``cli.main`` get none.
"""

import _signal  # signal's C core, already loaded; `import signal` builds enums at each start
import gc
import os
import sys


def main() -> None:
    gc.disable()
    if hasattr(_signal, "SIGPIPE"):
        _signal.signal(_signal.SIGPIPE, _signal.SIG_DFL)
    from .cli import main as run  # after gc.disable(): importing numpy allocates too
    code = run()  # an escaping exception reaches the interpreter: traceback, exit 1
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:  # e.g. a full disk: let the interpreter report it
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    main()
