"""Golden digests: small in-process ``asymreplay run``s must write the same
bytes as when the digests were recorded.

Each run covers a method (plus ER-AML under the all-classes negative
policy and one blurry ER-AML run) on a small synthetic config at M=20 with
two seeds, so the buffer is full and ER-AML fetches positives and
negatives from it.  The digests pin ``report.json``, the TSV plot files,
``stream_metadata.json`` and each seed's final ``ReplayBuffer.dump``.

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
            '6871ff06ef299751adca2ed378b23a1bb4c51c6fc4cd3f2b2e52f4c6a3a3f1fa',
        'aa_trace.tsv':
            '75a8c4a5bb53474120ac4be9b50a07208e78c235c0cc18545f5a3def656cced5',
        'drift_trace.tsv':
            'a6f6f90bf593e43fae18f98792b2bddbd9bdd2ac9266a966351d37e68fc2da38',
        'accuracy_matrix.tsv':
            '4323b47cdd91fc62f9d9a66e6a422a6aa7b9b6bc5f1adaf950bbe74a2bdc3697',
        'stream_metadata.json':
            '59da499aa8f038830b8c2c2e1664f1d12651fda4e05d5220a860d34ec64efe33',
        'buffer_seed0.bin':
            'e5803afe6e1b14561ab206455fa6913f6795e0ff5040f2f62465ecf3becfcfc4',
        'buffer_seed1.bin':
            '339ade4d7ede8eca1a1f32d4e27b2284c331c2f836da706b427eaa2534c50178',
    },
    'er-ace': {
        'report.json':
            'fc5d0e05e07c4b494eb81bb42dade64915862dc971ed55d1099b056a79793b50',
        'aa_trace.tsv':
            'd37950bcc45c1054d20ed649cce272c48f5b9861edf7549848fccb00a166bf09',
        'drift_trace.tsv':
            'b8614d8804cb1dc003fcd5be21b7ee2855f997fd909a17ae5817173f52478b45',
        'accuracy_matrix.tsv':
            'd4a7b7dac5d8478500ce86fc3fbfe9fae5e7ed4c752d67bbd44ba367c5854e87',
        'stream_metadata.json':
            '59da499aa8f038830b8c2c2e1664f1d12651fda4e05d5220a860d34ec64efe33',
        'buffer_seed0.bin':
            'e5803afe6e1b14561ab206455fa6913f6795e0ff5040f2f62465ecf3becfcfc4',
        'buffer_seed1.bin':
            '339ade4d7ede8eca1a1f32d4e27b2284c331c2f836da706b427eaa2534c50178',
    },
    'ssil-nodistill': {
        'report.json':
            '25b768db9a24ab8c61a9df3487e4b685f75283a42f82cff85cb8d3c4adaa321b',
        'aa_trace.tsv':
            'eb4acd4ceabe243df1c43b08035f41bca379052f9e615eee2b5ecbf28dcaf612',
        'drift_trace.tsv':
            'a50e694d1cd7c8ff85243d745c860c9b165d1deb274ec93e1eec882b0aec6f8b',
        'accuracy_matrix.tsv':
            'ba789cf4dac553d45f5a97abb82721d3efa3c1d0da0c5766217b262d430dd15f',
        'stream_metadata.json':
            '59da499aa8f038830b8c2c2e1664f1d12651fda4e05d5220a860d34ec64efe33',
        'buffer_seed0.bin':
            'e5803afe6e1b14561ab206455fa6913f6795e0ff5040f2f62465ecf3becfcfc4',
        'buffer_seed1.bin':
            '339ade4d7ede8eca1a1f32d4e27b2284c331c2f836da706b427eaa2534c50178',
    },
    'er-aml': {
        'report.json':
            'cdf12ace4e1c78b12c5c361dcbb4bc409e4f378060d2a628b2b4c08447b6dcde',
        'aa_trace.tsv':
            '0bdae60a6788bcfba22b82445acf5ec304d962d4d89dfa45df6a75b2b885ba70',
        'drift_trace.tsv':
            '7630c8f869b0a9d21542a6fb9730b39cdefd0bef3b34eded5336ca85d15ca6b8',
        'accuracy_matrix.tsv':
            '64ed6db3c7670b1a4dfb63265eca5fd9ec82499010be14aded17216e74add191',
        'stream_metadata.json':
            '59da499aa8f038830b8c2c2e1664f1d12651fda4e05d5220a860d34ec64efe33',
        'buffer_seed0.bin':
            'e5803afe6e1b14561ab206455fa6913f6795e0ff5040f2f62465ecf3becfcfc4',
        'buffer_seed1.bin':
            '339ade4d7ede8eca1a1f32d4e27b2284c331c2f836da706b427eaa2534c50178',
    },
    'er-aml-triplet': {
        'report.json':
            '7b057a7fdce9b135058c64b2e88fac8bd172846fd7b1adfcf0b4a2a94ef1d95a',
        'aa_trace.tsv':
            'bd0550b87f19df11fbc9b52b94eac7302eeda5a255a11149b3ebad1ab8dedd3f',
        'drift_trace.tsv':
            'd994c988c33998a437ecd45c1fbedccc62086647041b21ed4f6b960398db0e74',
        'accuracy_matrix.tsv':
            '5e085399989caebb25e14094d7a1fbb7f22c14299eb6fcdbb3071a690e235b2a',
        'stream_metadata.json':
            '59da499aa8f038830b8c2c2e1664f1d12651fda4e05d5220a860d34ec64efe33',
        'buffer_seed0.bin':
            'e5803afe6e1b14561ab206455fa6913f6795e0ff5040f2f62465ecf3becfcfc4',
        'buffer_seed1.bin':
            '339ade4d7ede8eca1a1f32d4e27b2284c331c2f836da706b427eaa2534c50178',
    },
    'er-aml-all-classes': {
        'report.json':
            'b752e86fd8279e007024a24289008867da9c376b53f7a9f5dce7bcc3b892667f',
        'aa_trace.tsv':
            '24f627d17e32b0a2991ed57b0c795565f73f37ff72c1fe2194895628576a3256',
        'drift_trace.tsv':
            'a956e7a9265f0483ba53127ff1efe21f7e3b934d076858cea885f2e96e15941d',
        'accuracy_matrix.tsv':
            '1eb996e20a08c15b708a7d717ddba146ac4e94b7cc6dbb12e931239eb34ecb61',
        'stream_metadata.json':
            '59da499aa8f038830b8c2c2e1664f1d12651fda4e05d5220a860d34ec64efe33',
        'buffer_seed0.bin':
            'e5803afe6e1b14561ab206455fa6913f6795e0ff5040f2f62465ecf3becfcfc4',
        'buffer_seed1.bin':
            '339ade4d7ede8eca1a1f32d4e27b2284c331c2f836da706b427eaa2534c50178',
    },
    'er-aml-blurry': {
        'report.json':
            '77b7940bf8cc55ae4447c73761369e11c25c589586d20eb9e4790e1545b6acfd',
        'aa_trace.tsv':
            '7fe2aea8a218c7f9df0b90f8fa5a90e61eacf277b678acc9ab42838e5002967a',
        'drift_trace.tsv':
            'c58e9a50939477e7b7e71b30221c0cc001ad2b5929f43f48c4c7ddda0c7743b5',
        'accuracy_matrix.tsv':
            '255cc5442e3769b0a45792754a8e7385d4f9be95f4834537902e0af1db770c3c',
        'stream_metadata.json':
            'd65efedfe78f91ac2aa88e8172aa66fbc2ebe4a0b51b90f71cadc190ce284775',
        'buffer_seed0.bin':
            '93a71429ce3017faa81dcc6943c9510c54caec1c05b4f15ff27691d973428e2a',
        'buffer_seed1.bin':
            '7b394799a6a88e127044076f6d859d05c9eab2556b8c967de8984a3ef1e1b1f7',
    },
}


def run_digests(name, out_dir):
    """sha256 of each output file of run ``name`` and of each seed's final
    buffer dump, keyed by file name."""
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
    for seed, state in enumerate(states):
        state.buffer.dump(os.path.join(out_dir, f"buffer_seed{seed}.bin"))
    names = [*OUTPUTS, *(f"buffer_seed{s}.bin" for s in range(len(states)))]
    digests = {}
    for fname in names:
        with open(os.path.join(out_dir, fname), "rb") as fh:
            digests[fname] = hashlib.sha256(fh.read()).hexdigest()
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
