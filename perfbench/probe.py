"""Set-up probe: a fresh interpreter runs ``asymreplay run`` for the
workload's first config and stops at the first ``train_step``.

    python3 perfbench/probe.py WORKLOAD SEED [smoke]

Prints ``first-step`` the moment the first training step is entered, so
the parent's clock from spawn to that line is the set-up time: interpreter
start, imports, argument parsing, dataset, stream, model and buffer init.
"""

import os
import sys

import workloads as W


def main():
    W.import_program()
    from asymreplay import cli, trainer

    wl = W.workload(sys.argv[1], smoke=len(sys.argv) > 3)
    seeds = wl.program_seeds(int(sys.argv[2]))

    def first_step(*args, **kwargs):
        sys.stdout.write("first-step\n")
        sys.stdout.flush()
        os._exit(0)

    trainer.train_step = first_step
    overrides = wl.experiment_overrides(wl.configs[0], seeds[:1])
    code = cli.main(["run", *W.cli_flags(overrides),
                     "--out", str(W.OUT / "probe"), "--timestamp", W.TIMESTAMP])
    # the run ended without a training step
    sys.exit(code or 3)


if __name__ == "__main__":
    main()
