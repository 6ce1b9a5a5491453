"""python -m liecoh: the liecoh command line (liecoh.cli.main)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
