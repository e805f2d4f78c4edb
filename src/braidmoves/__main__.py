"""python -m braidmoves: the command-line tool, as the braidmoves script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
