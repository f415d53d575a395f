"""Synthetic datasets, sharp task splits, blurred schedules, file format."""

import hashlib
import struct
from dataclasses import replace

import numpy as np
import pytest

import reference as R

from asymreplay import stream as S
from asymreplay.report import ConfigError, ExperimentConfig
from asymreplay.stream import Dataset, DatasetParseError, StreamMode


def spec(**kw):
    """A synthetic dataset's config; tasks of one class fit any class
    count."""
    base = dict(input_dim=8, num_classes=4, samples_per_class=30,
                noise_sigma=0.25, mean_radius=1.0, classes_per_task=1)
    base.update(kw)
    return ExperimentConfig(**base)


def split_cfg(**kw):
    base = dict(classes_per_task=2, batch_size=10,
                stream_mode=StreamMode.SPLIT)
    base.update(kw)
    return ExperimentConfig(**base)


def blurry_cfg(**kw):
    base = dict(classes_per_task=2, batch_size=10,
                stream_mode=StreamMode.BLURRY)
    base.update(kw)
    return ExperimentConfig(**base)


def dataset(num_classes):
    """Two labelled rows per split."""
    x = np.zeros((2, 2), dtype=np.float32)
    y = np.array([0, 1])
    return Dataset(x, y, x, y, x, y, num_classes=num_classes)


# synthetic dataset ----------------------------------------------------

def test_class_means_on_requested_radius():
    means = S.random_class_means(6, 12, seed=3, radius=2.5)
    assert means.shape == (6, 12)
    assert np.allclose(np.linalg.norm(means, axis=1), 2.5, atol=1e-5)


def test_sigma_zero_collapses_to_means():
    ds = S.make_synthetic(spec(noise_sigma=0.0), seed=1)
    means = S.random_class_means(4, 8, seed=1, radius=1.0)
    for c in range(4):
        rows = ds.train_x[ds.train_y == c]
        assert np.allclose(rows, means[c], atol=1e-6)


def test_split_sizes_and_counts():
    ds = S.make_synthetic(spec(samples_per_class=40, val_fraction=0.05,
                               test_fraction=0.25), seed=0)
    assert np.all(ds.train_count_per_class() == 40)
    assert len(ds.val_y) == 4 * 2      # round(0.05*40) per class
    assert len(ds.test_y) == 4 * 10
    assert ds.input_dim == 8 and ds.num_classes == 4


def test_dataset_deterministic_per_seed():
    a = S.make_synthetic(spec(), seed=7)
    b = S.make_synthetic(spec(), seed=7)
    c = S.make_synthetic(spec(), seed=8)
    assert a.train_x.tobytes() == b.train_x.tobytes()
    assert a.train_x.tobytes() != c.train_x.tobytes()


def dataset_sha256(ds):
    h = hashlib.sha256()
    for xs in (ds.train_x, ds.val_x, ds.test_x):
        h.update(xs.astype("<f4").tobytes())
    for ys in (ds.train_y, ds.val_y, ds.test_y):
        h.update(ys.astype("<i8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("kw,seed,digest", [
    ({}, 3,
     "68d966cf364878a5e5709dcf39c6f323fd0dbc90a408e5bb7cb8aafb2eb4565f"),
    (dict(input_dim=3, num_classes=3, samples_per_class=7, noise_sigma=0.5,
          mean_radius=2.0, val_fraction=0.3, test_fraction=0.0), 11,
     "556a5844e27b9bc8bfe3805b52db833fdde1c523792401f9b95879fa9d47ecb0"),
])
def test_dataset_bytes_pinned(kw, seed, digest):
    """Generation stays bit-identical to the per-class concatenating
    version these digests were recorded from."""
    ds = S.make_synthetic(spec(**kw), seed=seed)
    assert ds.train_x.dtype == np.float32 and ds.train_y.dtype == np.intp
    assert dataset_sha256(ds) == digest


def test_low_noise_clusters_linearly_separable():
    """Nearest-mean classification is near-perfect when sigma is small
    relative to the inter-mean distances."""
    ds = S.make_synthetic(spec(input_dim=16, num_classes=10,
                               samples_per_class=100, noise_sigma=0.05),
                          seed=0)
    means = S.random_class_means(10, 16, seed=0, radius=1.0)
    d2 = ((ds.test_x[:, None, :] - means[None]) ** 2).sum(axis=2)
    acc = float(np.mean(np.argmin(d2, axis=1) == ds.test_y))
    assert acc >= 0.999


# split streams --------------------------------------------------------

def test_split_stream_task_order_and_boundaries():
    ds = S.make_synthetic(spec(), seed=0)
    st = S.split_stream(ds, split_cfg(), 0)
    batches = list(st)
    assert st.task_ids.tolist() == [0, 0, 1, 1]
    assert st.boundaries == [0, 6]           # 60 samples per task / 10
    assert len(st) == len(batches) == 12
    for b in batches[:6]:
        assert set(b.labels) <= {0, 1}
    for b in batches[6:]:
        assert set(b.labels) <= {2, 3}


def test_split_stream_single_pass_over_training_data():
    ds = S.make_synthetic(spec(), seed=0)
    st = S.split_stream(ds, split_cfg(), 0)
    streamed = np.concatenate([b.inputs for b in st])
    assert streamed.shape[0] == len(ds.train_y)
    # every training row appears exactly once
    seen = {row.tobytes() for row in streamed}
    want = {row.tobytes() for row in ds.train_x}
    assert seen == want


def test_split_stream_steps_sequential_and_shuffled():
    ds = S.make_synthetic(spec(), seed=0)
    st = S.split_stream(ds, split_cfg(), 5)
    batches = list(st)
    assert len(batches) == len(st)
    # one task per batch, tasks in ascending order
    tasks = [np.unique(st.task_ids[b.labels]).tolist() for b in batches]
    assert all(len(t) == 1 for t in tasks)
    assert [t[0] for t in tasks] == sorted(t[0] for t in tasks)
    first_task = np.concatenate([b.labels for b in batches[:6]])
    assert not np.array_equal(first_task, np.sort(first_task))


def batch_tuples(stream):
    return [(b.inputs.tobytes(), b.inputs.dtype, b.inputs.shape,
             b.labels.tolist(), b.labels.dtype) for b in stream]


def ref_tuples(batches):
    return [(x.tobytes(), x.dtype, x.shape, y.tolist(), y.dtype)
            for x, y in batches]


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("samples_per_class,batch_size", [(30, 10), (27, 10),
                                                          (13, 4)])
def test_split_stream_matches_copying_reference(seed, samples_per_class,
                                                batch_size):
    """Bit-identical batches to the copy-per-batch builder, including tasks
    whose size batch_size does not divide (a short last batch per task)."""
    ds = S.make_synthetic(spec(samples_per_class=samples_per_class), seed=seed)
    cfg = split_cfg(batch_size=batch_size)
    st = S.split_stream(ds, cfg, seed)
    want = ref_tuples(R.ref_split_batches(ds, cfg, seed))
    assert batch_tuples(st) == want
    assert len(st) == len(want)


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("samples_per_class,batch_size,scale", [
    (30, 10, 1.0), (27, 10, 0.3), (13, 4, 50.0)])
def test_blurry_stream_matches_copying_reference(seed, samples_per_class,
                                                 batch_size, scale):
    ds = S.make_synthetic(spec(samples_per_class=samples_per_class), seed=seed)
    cfg = blurry_cfg(batch_size=batch_size, variance_scale=scale)
    st = S.blurry_stream(ds, cfg, seed)
    want = ref_tuples(R.ref_blurry_batches(ds, cfg, seed, scale))
    assert batch_tuples(st) == want
    assert len(st) == len(want)


def test_calibrated_blurry_stream_matches_copying_reference():
    ds = S.make_synthetic(spec(samples_per_class=27), seed=2)
    cfg = blurry_cfg()
    scale = S.calibrate_variance_scale(ds.train_count_per_class(),
                                       cfg.batch_size, cfg.target_unique_labels)
    want = ref_tuples(R.ref_blurry_batches(ds, cfg, 2, scale))
    assert batch_tuples(S.blurry_stream(ds, cfg, 2)) == want


@pytest.mark.parametrize("make,cfg", [
    (S.split_stream, split_cfg()),
    (S.blurry_stream, blurry_cfg(variance_scale=1.0))])
def test_stream_passes_repeat_and_batches_are_private(make, cfg):
    ds = S.make_synthetic(spec(samples_per_class=27), seed=0)
    train_x = ds.train_x.copy()
    st = make(ds, cfg, 3)
    first = batch_tuples(st)
    for b in st:
        b.inputs[...] = -1.0
        b.labels[...] = 99
    assert batch_tuples(st) == first
    assert ds.train_x.tobytes() == train_x.tobytes()


@pytest.mark.parametrize("make,key,value,bound", [
    (split_cfg, "batch_size", 0, ">= 1"),
    (split_cfg, "target_unique_labels", float("nan"), ">= 1"),
    (blurry_cfg, "variance_scale", 0.0, "> 0"),
    (spec, "noise_sigma", -1.0, ">= 0"),
    (spec, "mean_radius", float("inf"), ">= 0"),
    (spec, "val_fraction", -3.0, ">= 0"),
    (ExperimentConfig, "seeds", (-1,), ">= 0"),
    # a count setting must be an int, never a bool (bound None)
    (split_cfg, "batch_size", True, None),
    (split_cfg, "classes_per_task", 2.5, None),
    (spec, "input_dim", 2.5, None),
    (spec, "num_classes", True, None),
    (spec, "samples_per_class", 2.5, None),
    (ExperimentConfig, "rehearsal_batch_size", 2.5, None),
    (ExperimentConfig, "eval_every", 2.5, None),
    (ExperimentConfig, "buffer_capacity", True, None),
    (ExperimentConfig, "seeds", (2.5,), None),
    (ExperimentConfig, "seeds", (True,), None),
    (ExperimentConfig, "hidden_sizes", (2.5,), None),
    (ExperimentConfig, "hidden_sizes", (True,), None),
    (ExperimentConfig, "dataset_seed", 2.5, None),
    (dataset, "num_classes", 4.5, None),
])
def test_configs_refuse_a_value_out_of_range_by_name(make, key, value, bound):
    want = "an integer" if bound is None else f"finite and {bound}"
    with pytest.raises(ValueError, match=f"^{key} must be {want}, got"):
        make(**{key: value})


def test_range_check_passes_none_only_where_optional():
    assert blurry_cfg(variance_scale=None).variance_scale is None
    with pytest.raises(ValueError, match="^batch_size must be an integer"):
        split_cfg(batch_size=None)
    # an integer too large for a float is still a finite number
    assert split_cfg(batch_size=10**400).batch_size == 10**400


def test_split_requires_divisible_classes():
    ds = S.make_synthetic(spec(num_classes=5), seed=0)
    with pytest.raises(ValueError):
        S.split_stream(ds, split_cfg(classes_per_task=2), 0)


def test_task_maps_consistent():
    ds = S.make_synthetic(spec(), seed=0)
    st = S.split_stream(ds, split_cfg(), 0)
    assert st.task_ids.tolist() == [0, 0, 1, 1]
    meta = st.metadata()
    assert meta["task_of_class"] == {"0": 0, "1": 0, "2": 1, "3": 1}
    assert meta["mode"] == "split" and meta["num_steps"] == len(st)
    assert meta["variance_scale"] is None


def test_dataset_digest_survives_a_file_round_trip(tmp_path):
    ds = S.make_synthetic(spec(), seed=0)
    path = tmp_path / "ds.bin"
    S.save_dataset(ds, path)
    assert S.load_dataset(path).sha256() == ds.sha256()
    assert S.make_synthetic(spec(), seed=1).sha256() != ds.sha256()


# blurry streams -------------------------------------------------------

def test_blurry_stream_single_pass():
    ds = S.make_synthetic(spec(), seed=0)
    st = S.blurry_stream(ds, blurry_cfg(), 0)
    labels = np.concatenate([b.labels for b in st])
    assert np.all(np.bincount(labels, minlength=4) == 30)
    streamed = np.concatenate([b.inputs for b in st])
    assert {r.tobytes() for r in streamed} == {r.tobytes() for r in ds.train_x}


def test_blurry_low_variance_approaches_sharp_order():
    """As the schedule variance shrinks, each batch collapses to a single
    class and classes appear in index order."""
    ds = S.make_synthetic(spec(), seed=0)
    st = S.blurry_stream(ds, blurry_cfg(variance_scale=1e-6), 0)
    uniques = [len(np.unique(b.labels)) for b in st]
    assert np.mean(uniques) <= 1.01
    firsts = [int(b.labels[0]) for b in st]
    assert firsts == sorted(firsts)


def test_blurry_high_variance_mixes_classes():
    ds = S.make_synthetic(spec(), seed=0)
    st = S.blurry_stream(ds, blurry_cfg(variance_scale=1e6), 0)
    uniques = [len(np.unique(b.labels)) for b in st]
    assert np.mean(uniques) > 2.0


def test_calibration_hits_target_unique_labels():
    ds = S.make_synthetic(spec(input_dim=4, num_classes=10,
                               samples_per_class=50), seed=0)
    per_class = ds.train_count_per_class()
    scale = S.calibrate_variance_scale(per_class, 10, 2.0)
    measured = S._mean_unique_labels(per_class, 10, scale)
    assert measured == pytest.approx(2.0, abs=0.3)


def test_calibration_takes_a_list_of_counts():
    scales = []
    for counts in ([6, 6, 6], np.array([6, 6, 6])):
        S._calibrate.cache_clear()   # no cached answer
        scales.append(S.calibrate_variance_scale(counts, 2, 1.5))
    assert scales[0] == scales[1]


def test_calibration_rejects_unattainable_target():
    with pytest.raises(ValueError):
        S.calibrate_variance_scale(np.full(4, 30), 10, 9.0)
    with pytest.raises(ValueError):
        S.calibrate_variance_scale(np.full(4, 30), 10, 0.5)


def test_calibration_refuses_a_level_the_streams_cannot_reach():
    """Three classes of six rows at batch 3 reach at most 1.83 labels per
    batch: level 2 is refused with that range, not run at the clamp."""
    with pytest.raises(ValueError, match=r"^unattainable blurriness level "
                                         r"2\.0: these streams reach "
                                         r"1\.00 to 1\.83 unique"):
        S.calibrate_variance_scale([6, 6, 6], 3, 2.0)
    S.calibrate_variance_scale([6, 6, 6], 3, 1.5)


def test_blurry_metadata_names_the_scale_it_ran():
    ds = S.make_synthetic(spec(), seed=0)
    calibrated = S.calibrate_variance_scale(ds.train_count_per_class(), 10,
                                            2.0)
    for cfg, scale in ((blurry_cfg(), calibrated),
                       (blurry_cfg(variance_scale=0.5), 0.5),
                       (blurry_cfg(variance_scale=1.0), 1.0)):
        assert S.blurry_stream(ds, cfg, 0).metadata()["variance_scale"] == scale


def test_blurriness_sweep_levels():
    """A level is a config's ``target_unique_labels``: levels up to the 10
    classes are served, level 11 is refused by name."""
    cfg = blurry_cfg(input_dim=4, num_classes=10, samples_per_class=50,
                     classes_per_task=1)
    ds = S.make_synthetic(cfg, seed=0)
    for level in (1.0, 3.0, 5.0):
        st = S.make_stream(ds, replace(cfg, target_unique_labels=level), 0)
        uniques = [len(np.unique(b.labels)) for b in st]
        assert np.mean(uniques) == pytest.approx(level, abs=0.3)
    with pytest.raises(ConfigError,
                       match="target_unique_labels must be <= num_classes 10"):
        replace(cfg, target_unique_labels=11)


@pytest.mark.parametrize("seed", [0, 1, 5])
@pytest.mark.parametrize("counts", [
    [5, 0, 3, 7],                # a class with no rows
    [1, 1, 1],                   # every pool empties at its first draw
    [3, 9, 2, 0, 4, 1],
    [13, 13, 13, 13]])
def test_batched_label_draw_equals_the_per_sample_draw(counts, seed):
    """Labels drawn a run at a time equal the per-sample oracle's, and the
    generator ends in the same state, whatever pools empty mid-batch."""
    for batch_size in (1, 2, 3, 5, 7, 10, 13):
        for scale in (1e-6, 1e-2, 1.0, 50.0, 1e4, 1e10):
            got, want = (np.random.default_rng(seed) for _ in range(2))
            steps = S._draw_blurry_labels(np.array(counts), batch_size,
                                          scale, got)
            ref = R.ref_draw_blurry_labels(np.array(counts), batch_size,
                                           scale, want)
            assert [s.tolist() for s in steps] == [s.tolist() for s in ref]
            assert got.random() == want.random()


def test_make_stream_dispatches_on_mode():
    ds = S.make_synthetic(spec(), seed=0)
    assert S.make_stream(ds, split_cfg(), 0).mode is StreamMode.SPLIT
    assert S.make_stream(ds, blurry_cfg(), 0).mode is StreamMode.BLURRY


def test_stream_determinism_per_seed():
    ds = S.make_synthetic(spec(), seed=0)
    for make, cfg in ((S.split_stream, split_cfg()),
                      (S.blurry_stream, blurry_cfg())):
        a, b = make(ds, cfg, 4), make(ds, cfg, 4)
        assert all(np.array_equal(x.labels, y.labels)
                   and x.inputs.tobytes() == y.inputs.tobytes()
                   for x, y in zip(a, b))


# dataset file format --------------------------------------------------

def test_dataset_round_trip(tmp_path):
    ds = S.make_synthetic(spec(), seed=9)
    path = tmp_path / "ds.bin"
    S.save_dataset(ds, path)
    back = S.load_dataset(path)
    for a, b in ((ds.train_x, back.train_x), (ds.val_x, back.val_x),
                 (ds.test_x, back.test_x)):
        assert a.tobytes() == b.tobytes()
    assert np.array_equal(ds.train_y, back.train_y)
    assert np.array_equal(ds.test_y, back.test_y)


def test_round_trip_keeps_a_class_without_training_rows(tmp_path):
    """The class count is the header's, not the largest training label."""
    x = np.arange(12, dtype=np.float32).reshape(6, 2)
    y = np.array([0, 1, 2, 0, 1, 2], dtype=np.intp)
    ds = Dataset(x[:2], y[:2], x[2:4], y[2:4], x[4:], y[4:], num_classes=3)
    path = tmp_path / "ds.bin"
    S.save_dataset(ds, path)
    back = S.load_dataset(path)
    assert back.num_classes == 3
    assert list(back.train_count_per_class()) == [1, 1, 0]
    for name in ("train", "val", "test"):
        for part in ("x", "y"):
            a, b = (getattr(d, f"{name}_{part}") for d in (ds, back))
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("split,label", [("train", 3), ("val", -1),
                                         ("test", 2)])
def test_dataset_rejects_label_outside_its_classes(split, label):
    """A dataset holds no label that its own file format would refuse."""
    x = np.zeros((2, 2), dtype=np.float32)
    ys = {name: np.array([0, 1]) for name in ("train", "val", "test")}
    ys[split] = np.array([0, label])
    with pytest.raises(ValueError, match=f"{split} label {label} outside 0..1"):
        Dataset(x, ys["train"], x, ys["val"], x, ys["test"], num_classes=2)


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"WHAT" + b"\x00" * 40)
    with pytest.raises(DatasetParseError) as exc:
        S.load_dataset(path)
    assert exc.value.offset == 0


@pytest.mark.parametrize("header,message,offset", [
    (b"\x01\x00", "truncated header", 6),
    (struct.pack("<IIIIII", 2, 1, 1, 0, 0, 0), "unsupported version 2", 4),
])
def test_load_rejects_a_bad_header(header, message, offset, tmp_path):
    path = tmp_path / "header.bin"
    path.write_bytes(S.DATASET_MAGIC + header)
    with pytest.raises(DatasetParseError, match=message) as exc:
        S.load_dataset(path)
    assert exc.value.offset == offset


def test_load_reports_truncation_offset(tmp_path):
    ds = S.make_synthetic(spec(samples_per_class=5), seed=0)
    path = tmp_path / "trunc.bin"
    S.save_dataset(ds, path)
    data = path.read_bytes()
    # a short read reports the end of the file, in any split
    for cut, offset in ((3, 1033), (40, 996), (826, 210)):
        path.write_bytes(data[:-cut])
        with pytest.raises(DatasetParseError, match="truncated payload") as exc:
            S.load_dataset(path)
        assert exc.value.offset == offset


def test_load_rejects_out_of_range_label(tmp_path):
    ds = Dataset(np.zeros((1, 2), dtype=np.float32), np.array([0]),
                 np.zeros((0, 2), dtype=np.float32), np.zeros(0, dtype=np.intp),
                 np.zeros((0, 2), dtype=np.float32), np.zeros(0, dtype=np.intp),
                 num_classes=1)
    path = tmp_path / "label.bin"
    S.save_dataset(ds, path)
    data = bytearray(path.read_bytes())
    data[-4:] = (99).to_bytes(4, "little")  # corrupt the single label
    path.write_bytes(bytes(data))
    with pytest.raises(DatasetParseError, match="label 99 out of range") as exc:
        S.load_dataset(path)
    assert exc.value.offset == 36          # the label field of row 0


def test_load_reports_first_bad_label_before_truncation(tmp_path):
    ds = S.make_synthetic(spec(samples_per_class=5), seed=0)
    path = tmp_path / "label.bin"
    S.save_dataset(ds, path)
    data = bytearray(path.read_bytes())
    label_at = 28 + 3 * 36 + 32            # header, 3 rows, row 3's inputs
    data[label_at:label_at + 4] = (7).to_bytes(4, "little")
    path.write_bytes(bytes(data))
    with pytest.raises(DatasetParseError, match="label 7 out of range") as exc:
        S.load_dataset(path)
    assert exc.value.offset == label_at
    data[label_at:label_at + 4] = (-1).to_bytes(4, "little", signed=True)
    path.write_bytes(bytes(data[:-5]))
    with pytest.raises(DatasetParseError, match="label -1 out of range") as exc:
        S.load_dataset(path)
    assert exc.value.offset == label_at


def test_saved_dataset_bytes_pinned(tmp_path):
    """The file layout is the row-by-row one these bytes were recorded from."""
    ds = S.make_synthetic(spec(samples_per_class=5), seed=0)
    path = tmp_path / "ds.bin"
    S.save_dataset(ds, path)
    data = path.read_bytes()
    assert len(data) == 28 + 4 * 7 * (4 * 8 + 4)
    assert hashlib.sha256(data).hexdigest() == (
        "5aa02d489b4106f932022aa41d09d1ce31d979b97725e0c7f17d22314cf9abc4")


def test_load_rejects_row_count_beyond_the_file(tmp_path):
    path = tmp_path / "huge.bin"
    header = struct.pack("<IIIIII", 1, 1000, 3, 0xFFFFFFFF, 0, 0)
    path.write_bytes(S.DATASET_MAGIC + header + b"\x00" * 50)
    with pytest.raises(DatasetParseError, match="truncated payload") as exc:
        S.load_dataset(path)
    assert exc.value.offset == 4 + 24 + 50


def test_load_rejects_input_dim_too_large_for_a_row(tmp_path):
    path = tmp_path / "wide.bin"
    header = struct.pack("<IIIIII", 1, 0xFFFFFFFF, 3, 1, 0, 0)
    path.write_bytes(S.DATASET_MAGIC + header + b"\x00" * 50)
    with pytest.raises(DatasetParseError, match="input_dim") as exc:
        S.load_dataset(path)
    assert exc.value.offset == 8           # the input_dim field


def test_load_rejects_trailing_bytes(tmp_path):
    ds = S.make_synthetic(spec(samples_per_class=5), seed=0)
    path = tmp_path / "trail.bin"
    S.save_dataset(ds, path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(DatasetParseError):
        S.load_dataset(path)
