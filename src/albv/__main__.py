"""``python -m albv``: the command line, exiting with the status of
``cli.main``."""

import sys

from .cli import main

__all__ = []

if __name__ == "__main__":
    sys.exit(main())
