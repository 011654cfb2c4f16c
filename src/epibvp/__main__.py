"""``python -m epibvp``: the command line, as the ``epibvp`` script runs it."""

import sys

from .cli import main

__all__ = ["main"]

if __name__ == "__main__":
    sys.exit(main())
