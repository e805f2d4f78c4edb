"""Set-up cost of braidmoves in a fresh interpreter.

Imports the package and its command-line front end, builds the argument
parser, then builds the generator tables for the given strand counts, and
prints {"import_s": ..., "tables_s": ...} as one JSON line.

    python3 perfbench/setup_probe.py 3 4 5
"""

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def build_tables(strands) -> None:
    """Fill the memoized generator tables that every query reads."""
    from braidmoves import BraidWord, FreeWord, t_element, tau, tau_plus_generator
    from braidmoves.homology import tau_components_y
    from braidmoves.modcheck import t_mod, x_mod, y_mod

    for n in strands:
        for i in range(1, n):
            for s in (1, -1):
                tau(BraidWord.generator(n, i, s))
                tau_plus_generator(n, i, s)
        for j in range(1, n + 1):
            for s in (1, -1):
                tau(FreeWord.generator(n, j, s))
                x_mod(n, j, s)
                y_mod(n, j, s)
            t_element(n, j)
            t_mod(n, j)
        # the y-basis letters, in both signs, of the y-side sweep
        for s in (1, -1):
            tau_components_y(FreeWord.generator(n, n, s))


def main() -> None:
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import braidmoves.cli

    braidmoves.cli.build_parser()
    t1 = time.perf_counter()
    build_tables([int(a) for a in sys.argv[1:]])
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "tables_s": t2 - t1}))


if __name__ == "__main__":
    main()
