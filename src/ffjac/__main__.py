"""python -m ffjac: the ffjac command line (see ffjac.cli)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
