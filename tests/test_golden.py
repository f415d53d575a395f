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

from asymreplay import cli, trainer

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
            'e67f4e7cd407eae9da992897471ff25a7a820092573e3f80eb9b91bf2475a7dd',
        'buffer_seed0':
            '3009789eb1204f6d10aab2d0c8556fe4b8eec19429757badcd083e6541ecc0b8',
        'buffer_seed1':
            'c77d481a2ceeb875dd62abc92e3903d427399ba1f47f604328afc0894cc5175b',
    },
    'er-ace': {
        'report.json':
            '492fbc56c62cf6e3db7f13512f66fe4158ce94c96a8c91018e310b573c16e450',
        'buffer_seed0':
            '3009789eb1204f6d10aab2d0c8556fe4b8eec19429757badcd083e6541ecc0b8',
        'buffer_seed1':
            'c77d481a2ceeb875dd62abc92e3903d427399ba1f47f604328afc0894cc5175b',
    },
    'ssil-nodistill': {
        'report.json':
            'aabf5cb0a284404669a59a925ba5eaf16d0ac11ca775473ae422e1d1790cbc7e',
        'buffer_seed0':
            '3009789eb1204f6d10aab2d0c8556fe4b8eec19429757badcd083e6541ecc0b8',
        'buffer_seed1':
            'c77d481a2ceeb875dd62abc92e3903d427399ba1f47f604328afc0894cc5175b',
    },
    'er-aml': {
        'report.json':
            'e81a8081c4e4c383c536b92d8b9e895bc44e2c81b1b99a21ad879dc3992cb84a',
        'buffer_seed0':
            '3009789eb1204f6d10aab2d0c8556fe4b8eec19429757badcd083e6541ecc0b8',
        'buffer_seed1':
            'c77d481a2ceeb875dd62abc92e3903d427399ba1f47f604328afc0894cc5175b',
    },
    'er-aml-triplet': {
        'report.json':
            '6f6572e0a0cdfaee8fcb1f12eaf7721a6e3fe6bcf12c9694d94ef15670f28535',
        'buffer_seed0':
            '3009789eb1204f6d10aab2d0c8556fe4b8eec19429757badcd083e6541ecc0b8',
        'buffer_seed1':
            'c77d481a2ceeb875dd62abc92e3903d427399ba1f47f604328afc0894cc5175b',
    },
    'er-aml-all-classes': {
        'report.json':
            '96efa18325d931faa6fb395717746b770bd68f6413ce1c9f5f6aade50ca3f8a2',
        'buffer_seed0':
            '3009789eb1204f6d10aab2d0c8556fe4b8eec19429757badcd083e6541ecc0b8',
        'buffer_seed1':
            'c77d481a2ceeb875dd62abc92e3903d427399ba1f47f604328afc0894cc5175b',
    },
    'er-aml-blurry': {
        'report.json':
            '12a3f36fd50bf1e6f0e304c01e9be520163608dcbc6571242faf365e466af367',
        'buffer_seed0':
            'e61f240d0c0dee33fdd6a4b56ce36c2a4ecc68d5fc4c8b3cdc56e6097a4e1e75',
        'buffer_seed1':
            '9f7ee7c2623b2d51aa31e88584271552e39e5f74406644ea175186c90207cfeb',
    },
}


def run_digests(name, out_dir):
    """sha256 of each output file of run ``name``, keyed by file name, and
    of each seed's final buffer contents, keyed ``buffer_seed{s}``."""
    states = []
    real_build_state = trainer.build_state

    def build_state(*args, **kwargs):
        states.append(real_build_state(*args, **kwargs))
        return states[-1]

    trainer.build_state = build_state
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["run", *BASE, *RUNS[name], "--out", out_dir]) == 0
    finally:
        trainer.build_state = real_build_state
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
