"""``python -m sealsim``: the command line that the ``sealsim`` script runs."""

import sys

from sealsim import cli

if __name__ == "__main__":
    sys.exit(cli.main())
