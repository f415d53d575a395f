"""The README's quick-start block runs as written, and its lists of
config keys, report traces and demos match what they list."""

import dataclasses
import re
from pathlib import Path

from asymreplay.report import FIELD_KINDS, ExperimentConfig, run_experiment

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_readme_quick_start_runs(capsys):
    text = README.read_text()
    quick_start = text[text.index("## Quick start"):]
    block = re.search(r"```python\n(.*?)```", quick_start, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 3 and all(float(v) >= 0 for v in printed)


def _names(text):
    return re.findall(r"`(\w+)`", text)


def test_readme_floors_name_each_numeric_field_under_its_floor():
    """The floors paragraph names every numeric config field once, under
    the floor its declaration gives it."""
    text = " ".join(README.read_text().split())
    floors = re.search(r"The floors are (.*?)\. ", text).group(1)
    listed = {}
    for group in floors.split("; "):
        bound, names = re.fullmatch(r"(?:and )?((?:above )?\d+) for (.*)",
                                    group).groups()
        listed[bound] = _names(names)
    declared = {}
    for f in dataclasses.fields(ExperimentConfig):
        if "floor" in f.metadata:
            bound = ("above " * f.metadata.get("strict", False)
                     + str(f.metadata["floor"]))
            declared.setdefault(bound, []).append(f.name)
    assert {b: sorted(n) for b, n in listed.items()} == \
        {b: sorted(n) for b, n in declared.items()}
    assert len(_names(floors)) == len(set(_names(floors)))


def test_readme_optional_keys_are_the_optional_fields():
    text = " ".join(README.read_text().split())
    keys = re.search(r"Only the optional keys \((.*?)\) may be `null`",
                     text).group(1)
    assert _names(keys) == [k for k, (_, optional) in FIELD_KINDS.items()
                            if optional]


def test_readme_trace_list_is_a_seed_entrys_list_keys():
    text = " ".join(README.read_text().split())
    traces = re.search(r"It holds every per-seed trace \((.*?)\)",
                       text).group(1)
    cfg = ExperimentConfig(input_dim=4, num_classes=4, samples_per_class=20,
                           batch_size=5, hidden_sizes=(8,))
    entry = run_experiment(cfg)["seeds"][0]
    assert entry["error"] is None
    assert sorted(_names(traces)) == sorted(
        k for k, v in entry.items() if isinstance(v, list))


def test_readme_demos_block_names_each_demo_once():
    text = README.read_text()
    block = re.search(r"```bash\n(.*?)```", text[text.index("## Demos"):],
                      re.S).group(1)
    assert sorted(re.findall(r"demos/(\S+\.py)", block)) == \
        sorted(path.name for path in (ROOT / "demos").glob("*.py"))
