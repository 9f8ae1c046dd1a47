"""One set-up round in a fresh interpreter: import finemw, write a workload's
inputs, run the warm-up command.  ``run.py`` times this script as a whole, so
interpreter start and imports count towards ``setup_s``.

    python3 perfbench/setup_round.py WORKLOAD SEED DIRECTORY
"""

import sys
from pathlib import Path

import run
import workloads


def main(name, seed, directory):
    finemw = run.import_program()
    workload = workloads.WORKLOADS[name]
    workloads.generate(finemw, workload, int(seed), Path(directory))
    warm = workloads.warmup_file(finemw, workload, Path(directory))
    run.run_command(finemw.cli, workloads.argv_for(workload, warm))


if __name__ == "__main__":
    main(*sys.argv[1:])
