"""Golden digests: small in-process ``asymreplay run``s must write the same
bytes as when the digests were recorded.

Each run covers a method (plus ER-AML under the all-classes negative
policy and one blurry ER-AML run) on a small synthetic config at M=20 with
two seeds, so the buffer is full and ER-AML fetches positives and
negatives from it.  The digests pin ``report.json``, the TSV plot files,
``stream_metadata.json`` and each seed's final buffer contents (the filled
slots' inputs, then their labels).

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

OUTPUTS = ("report.json", "aa_trace.tsv", "drift_trace.tsv",
           "accuracy_matrix.tsv", "stream_metadata.json")

GOLDEN = {
    'er': {
        'report.json':
            'fbf281fce826e9b182262633de65f4953981fc2c089ce345d7fff2fbade98e6c',
        'aa_trace.tsv':
            '75a8c4a5bb53474120ac4be9b50a07208e78c235c0cc18545f5a3def656cced5',
        'drift_trace.tsv':
            'a6f6f90bf593e43fae18f98792b2bddbd9bdd2ac9266a966351d37e68fc2da38',
        'accuracy_matrix.tsv':
            '4323b47cdd91fc62f9d9a66e6a422a6aa7b9b6bc5f1adaf950bbe74a2bdc3697',
        'stream_metadata.json':
            '714fd8f5342e527c0a3e6bf831a3ea4a1989c71ee2eafb57caf79e6659f19f55',
        'buffer_seed0':
            '3009789eb1204f6d10aab2d0c8556fe4b8eec19429757badcd083e6541ecc0b8',
        'buffer_seed1':
            'c77d481a2ceeb875dd62abc92e3903d427399ba1f47f604328afc0894cc5175b',
    },
    'er-ace': {
        'report.json':
            '0d2701c4f57aa4a4aa70e4ba2ce60c995559617ba721c2d27dacf113cd2f157e',
        'aa_trace.tsv':
            'd37950bcc45c1054d20ed649cce272c48f5b9861edf7549848fccb00a166bf09',
        'drift_trace.tsv':
            'b8614d8804cb1dc003fcd5be21b7ee2855f997fd909a17ae5817173f52478b45',
        'accuracy_matrix.tsv':
            'd4a7b7dac5d8478500ce86fc3fbfe9fae5e7ed4c752d67bbd44ba367c5854e87',
        'stream_metadata.json':
            '714fd8f5342e527c0a3e6bf831a3ea4a1989c71ee2eafb57caf79e6659f19f55',
        'buffer_seed0':
            '3009789eb1204f6d10aab2d0c8556fe4b8eec19429757badcd083e6541ecc0b8',
        'buffer_seed1':
            'c77d481a2ceeb875dd62abc92e3903d427399ba1f47f604328afc0894cc5175b',
    },
    'ssil-nodistill': {
        'report.json':
            'ec726b45eb1135ea5a1699b3fe894a0214dc679792a7f9dcf4f12499fe683d2c',
        'aa_trace.tsv':
            'eb4acd4ceabe243df1c43b08035f41bca379052f9e615eee2b5ecbf28dcaf612',
        'drift_trace.tsv':
            'a50e694d1cd7c8ff85243d745c860c9b165d1deb274ec93e1eec882b0aec6f8b',
        'accuracy_matrix.tsv':
            'ba789cf4dac553d45f5a97abb82721d3efa3c1d0da0c5766217b262d430dd15f',
        'stream_metadata.json':
            '714fd8f5342e527c0a3e6bf831a3ea4a1989c71ee2eafb57caf79e6659f19f55',
        'buffer_seed0':
            '3009789eb1204f6d10aab2d0c8556fe4b8eec19429757badcd083e6541ecc0b8',
        'buffer_seed1':
            'c77d481a2ceeb875dd62abc92e3903d427399ba1f47f604328afc0894cc5175b',
    },
    'er-aml': {
        'report.json':
            '9ba2c9e2573b01252681bc69101d6320ff5e370ebbec873942f099629b0a9af2',
        'aa_trace.tsv':
            '0bdae60a6788bcfba22b82445acf5ec304d962d4d89dfa45df6a75b2b885ba70',
        'drift_trace.tsv':
            '7630c8f869b0a9d21542a6fb9730b39cdefd0bef3b34eded5336ca85d15ca6b8',
        'accuracy_matrix.tsv':
            '64ed6db3c7670b1a4dfb63265eca5fd9ec82499010be14aded17216e74add191',
        'stream_metadata.json':
            '714fd8f5342e527c0a3e6bf831a3ea4a1989c71ee2eafb57caf79e6659f19f55',
        'buffer_seed0':
            '3009789eb1204f6d10aab2d0c8556fe4b8eec19429757badcd083e6541ecc0b8',
        'buffer_seed1':
            'c77d481a2ceeb875dd62abc92e3903d427399ba1f47f604328afc0894cc5175b',
    },
    'er-aml-triplet': {
        'report.json':
            'cf78b9c95f6f64589e7797a9cbfc2b9771cfa72c8438c9bde8f1b97c4925db54',
        'aa_trace.tsv':
            'bd0550b87f19df11fbc9b52b94eac7302eeda5a255a11149b3ebad1ab8dedd3f',
        'drift_trace.tsv':
            'd994c988c33998a437ecd45c1fbedccc62086647041b21ed4f6b960398db0e74',
        'accuracy_matrix.tsv':
            '5e085399989caebb25e14094d7a1fbb7f22c14299eb6fcdbb3071a690e235b2a',
        'stream_metadata.json':
            '714fd8f5342e527c0a3e6bf831a3ea4a1989c71ee2eafb57caf79e6659f19f55',
        'buffer_seed0':
            '3009789eb1204f6d10aab2d0c8556fe4b8eec19429757badcd083e6541ecc0b8',
        'buffer_seed1':
            'c77d481a2ceeb875dd62abc92e3903d427399ba1f47f604328afc0894cc5175b',
    },
    'er-aml-all-classes': {
        'report.json':
            'dc93a145a92ade5ff86f3e6aeddaa77525e2a0f263a9aaf39430f15ab8d1ef04',
        'aa_trace.tsv':
            '24f627d17e32b0a2991ed57b0c795565f73f37ff72c1fe2194895628576a3256',
        'drift_trace.tsv':
            'a956e7a9265f0483ba53127ff1efe21f7e3b934d076858cea885f2e96e15941d',
        'accuracy_matrix.tsv':
            '1eb996e20a08c15b708a7d717ddba146ac4e94b7cc6dbb12e931239eb34ecb61',
        'stream_metadata.json':
            '714fd8f5342e527c0a3e6bf831a3ea4a1989c71ee2eafb57caf79e6659f19f55',
        'buffer_seed0':
            '3009789eb1204f6d10aab2d0c8556fe4b8eec19429757badcd083e6541ecc0b8',
        'buffer_seed1':
            'c77d481a2ceeb875dd62abc92e3903d427399ba1f47f604328afc0894cc5175b',
    },
    'er-aml-blurry': {
        'report.json':
            '51fe20706661bda7382142b07827020e06216387a641aebabc719b025d9bcc68',
        'aa_trace.tsv':
            '7fe2aea8a218c7f9df0b90f8fa5a90e61eacf277b678acc9ab42838e5002967a',
        'drift_trace.tsv':
            'c58e9a50939477e7b7e71b30221c0cc001ad2b5929f43f48c4c7ddda0c7743b5',
        'accuracy_matrix.tsv':
            '255cc5442e3769b0a45792754a8e7385d4f9be95f4834537902e0af1db770c3c',
        'stream_metadata.json':
            '470b19d7df684f100e313409d0c12e0d352f851b2086c9cf653d3f8ceab8804c',
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
