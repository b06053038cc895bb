"""One set-up of a workload in a fresh interpreter, as a user pays for it.

Imports the program from the checkout's src/, generates and writes the
workload's game files, and loads each back through ``load_game``, after
which the first op is ready. The last line printed is the reading of
``time.monotonic()`` at that point; ``run.py`` starts its clock just before
it launches this script, so the difference is the set-up time.

Usage, from the checkout root: python3 perfbench/setup_child.py <workload> <seed>
"""

import sys
import time

from workloads import generate, import_program, write_inputs


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    program = import_program()
    inputs = generate(workload, seed)
    write_inputs(inputs)
    for item in inputs:
        if item.game is not None:
            program.load_game(item.ref)
    print(repr(time.monotonic()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
