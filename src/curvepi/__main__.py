"""``python -m curvepi``: the same command line as the ``curvepi`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
