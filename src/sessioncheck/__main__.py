"""The ``sessioncheck`` command: run one command and exit with its code.

``python -m sessioncheck`` and the installed ``sessioncheck`` script both
enter through ``run``. The process ends with the command, and a run makes
no reference cycles (``cli.main``), so the cyclic collector is off from
before the first import of the command's modules: importing them makes
many objects, and the collections they would set off free nothing. For
the same reason the command's objects are frozen (``gc.freeze``) before
the interpreter exits, so the collection it makes as it shuts down walks
none of them. Importing this module runs nothing.
"""

import gc
import sys


def run() -> int:
    gc.disable()
    from .cli import main

    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
