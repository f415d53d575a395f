"""Golden digests: small in-process ``asymreplay run``s must write the same
bytes as when the digests were recorded.

Each run covers a method (plus ER-AML under the all-classes negative
policy and one blurry ER-AML run) on a small synthetic config at M=20 with
two seeds, so the buffer is full and ER-AML fetches positives and
negatives from it.  The digests pin ``report.json``, the run's one output
file, and each seed's final buffer contents (the filled slots' inputs, then
their labels).

The digests belong to the numpy/BLAS build they were recorded with: float
rounding can differ on another build even when the code is unchanged.  A
change meant to alter output bytes re-records them and says so.

To re-record, run ``python tests/test_golden.py`` with ``src`` on the path
and paste the printed table over ``GOLDEN``.
"""

import contextlib
import hashlib
import io
import os
import tempfile

from asymreplay import cli, report

BASE = ["--input-dim", "8", "--num-classes", "6", "--classes-per-task", "2",
        "--samples-per-class", "40", "--batch-size", "5",
        "--hidden-sizes", "16,8", "--buffer-capacity", "20",
        "--eval-every", "10", "--seeds", "0,1",
        "--timestamp", "2000-01-01T00:00:00"]

RUNS = {
    "er": ["--method", "er"],
    "er-ace": ["--method", "er-ace"],
    "ssil-nodistill": ["--method", "ssil-nodistill"],
    "er-aml": ["--method", "er-aml"],
    "er-aml-triplet": ["--method", "er-aml-triplet"],
    "er-aml-all-classes": ["--method", "er-aml",
                           "--negative-policy", "all-classes"],
    "er-aml-blurry": ["--method", "er-aml", "--stream-mode", "blurry"],
}

OUTPUTS = ("report.json",)

GOLDEN = {
    'er': {
        'report.json':
            '249dc5dd60f2b5d689212d22f5199cc56476a41f07870b5e0bac22426270b24e',
        'buffer_seed0':
            '3009789eb1204f6d10aab2d0c8556fe4b8eec19429757badcd083e6541ecc0b8',
        'buffer_seed1':
            'c77d481a2ceeb875dd62abc92e3903d427399ba1f47f604328afc0894cc5175b',
    },
    'er-ace': {
        'report.json':
            '219150c1f1773d34adbcc8d3c07d7c9d7a6b9118468eb6c8a8081facb06029e6',
        'buffer_seed0':
            '3009789eb1204f6d10aab2d0c8556fe4b8eec19429757badcd083e6541ecc0b8',
        'buffer_seed1':
            'c77d481a2ceeb875dd62abc92e3903d427399ba1f47f604328afc0894cc5175b',
    },
    'ssil-nodistill': {
        'report.json':
            '7c64660a7ea30b4d51e683d632c9a56f3e6a8e1a0e9f32b5055c728c526faf8a',
        'buffer_seed0':
            '3009789eb1204f6d10aab2d0c8556fe4b8eec19429757badcd083e6541ecc0b8',
        'buffer_seed1':
            'c77d481a2ceeb875dd62abc92e3903d427399ba1f47f604328afc0894cc5175b',
    },
    'er-aml': {
        'report.json':
            '33ed190ca09352d7a5a0495013bce1c27ee02f64b009e43906c0343ccc406e88',
        'buffer_seed0':
            '3009789eb1204f6d10aab2d0c8556fe4b8eec19429757badcd083e6541ecc0b8',
        'buffer_seed1':
            'c77d481a2ceeb875dd62abc92e3903d427399ba1f47f604328afc0894cc5175b',
    },
    'er-aml-triplet': {
        'report.json':
            '1e8cdda454f9b80d4e62e5e84583e82b7f4ce57369e603bd9c25c89f31d19b86',
        'buffer_seed0':
            '3009789eb1204f6d10aab2d0c8556fe4b8eec19429757badcd083e6541ecc0b8',
        'buffer_seed1':
            'c77d481a2ceeb875dd62abc92e3903d427399ba1f47f604328afc0894cc5175b',
    },
    'er-aml-all-classes': {
        'report.json':
            '5ee0f133bcd469c78b19c151404033942077206097e76dd2657b4bbd6f82ce33',
        'buffer_seed0':
            '3009789eb1204f6d10aab2d0c8556fe4b8eec19429757badcd083e6541ecc0b8',
        'buffer_seed1':
            'c77d481a2ceeb875dd62abc92e3903d427399ba1f47f604328afc0894cc5175b',
    },
    'er-aml-blurry': {
        'report.json':
            'e24cdabc7b40c7e036056f7aab8564b2919eb50942e45cf9fa5edf4bdd6fccc3',
        'buffer_seed0':
            'e61f240d0c0dee33fdd6a4b56ce36c2a4ecc68d5fc4c8b3cdc56e6097a4e1e75',
        'buffer_seed1':
            '9f7ee7c2623b2d51aa31e88584271552e39e5f74406644ea175186c90207cfeb',
    },
}


def run_digests(name, out_dir):
    """sha256 of each output file of run ``name``, keyed by file name, and
    of each seed's final buffer contents, keyed ``buffer_seed{s}``."""
    states = []   # ``run_experiment`` calls ``run`` once per seed
    real_run = report.run

    def run(*args, **kwargs):
        states.append(real_run(*args, **kwargs))
        return states[-1]

    report.run = run
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["run", *BASE, *RUNS[name], "--out", out_dir]) == 0
    finally:
        report.run = real_run
    digests = {}
    for fname in OUTPUTS:
        with open(os.path.join(out_dir, fname), "rb") as fh:
            digests[fname] = hashlib.sha256(fh.read()).hexdigest()
    for seed, state in enumerate(states):
        buf, n = state.buffer, len(state.buffer)
        digests[f"buffer_seed{seed}"] = hashlib.sha256(
            buf.x[:n].tobytes() + buf.y[:n].tobytes()).hexdigest()
    return digests


def test_outputs_match_golden_digests(tmp_path):
    got = {name: run_digests(name, str(tmp_path / name)) for name in RUNS}
    assert got == GOLDEN


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = {name: run_digests(name, os.path.join(tmp, name))
                 for name in RUNS}
    print("GOLDEN = {")
    for name, digests in table.items():
        print(f"    {name!r}: {{")
        for fname, digest in digests.items():
            print(f"        {fname!r}:\n            {digest!r},")
        print("    },")
    print("}")
