"""Buffer-size sweep via the command-line interface.

The asymmetric losses matter most when the replay buffer is small: with
few rehearsal samples per old class, an unmasked incoming loss does damage
faster than rehearsal can repair it.  As the buffer grows, plain replay
catches up and the gap narrows.

This demo drives the same `asymreplay sweep` command you would run in a
shell, into a temporary directory, then reads the machine-readable summary
it wrote there before the directory is removed.

Run:  python3 demos/05_buffer_size_sweep.py          (~5 s)
"""

import json
import os
import tempfile

from asymreplay.cli import main


def demo():
    with tempfile.TemporaryDirectory(prefix="asymreplay-") as tmp:
        out_dir = os.path.join(tmp, "sweep")
        args = [
            "sweep",
            "--input-dim", "16", "--num-classes", "10",
            "--samples-per-class", "300", "--noise-sigma", "0.5",
            "--classes-per-task", "2", "--batch-size", "10",
            "--hidden-sizes", "64,32", "--lr", "0.05",
            "--gamma", "2.0", "--tau", "0.2",
            "--seeds", "1,2,3",
            "--methods", "er,er-ace",
            "--buffer-capacities", "20,100,500",
            "--timestamp", "sweep-demo",
            "--out", out_dir,
        ]
        print("running: asymreplay " + " ".join(args))
        code = main(args)
        assert code == 0, f"sweep failed with exit code {code}"

        with open(os.path.join(out_dir, "sweep_summary.json")) as fh:
            rows = json.load(fh)

    print()
    print("gap (er-ace minus er, final accuracy) by buffer size:")
    by_cap = {}
    for row in rows:
        by_cap.setdefault(row["buffer_capacity"], {})[row["method"]] = row
    for cap in sorted(by_cap):
        pair = by_cap[cap]
        gap = pair["er-ace"]["final_accuracy"] - pair["er"]["final_accuracy"]
        print(f"  M={cap:<4} er={pair['er']['final_accuracy']:.3f} "
              f"er-ace={pair['er-ace']['final_accuracy']:.3f} gap={gap:+.3f}")


# sweep workers are spawned and import this file first, so the demo runs
# only when the file is executed as a script
if __name__ == "__main__":
    demo()
