from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from projtune.bench.data import (
    N_SEVERITIES,
    SHIFT_KINDS,
    DatasetSpec,
    finetune_subsample,
    generate_shift_dataset,
)
from projtune.errors import ConfigError, DomainError


def small_spec(**kw):
    defaults = dict(n_train=1000, n_test=400, n_classes=4, n_features=4)
    defaults.update(kw)
    return DatasetSpec(**defaults)


class TestGeneration:
    def test_same_seed_identical(self):
        spec = small_spec()
        a = generate_shift_dataset(spec, 7)
        b = generate_shift_dataset(spec, 7)
        np.testing.assert_array_equal(a.train.inputs, b.train.inputs)
        np.testing.assert_array_equal(a.test.labels, b.test.labels)
        for key in a.ood:
            np.testing.assert_array_equal(a.ood[key].inputs, b.ood[key].inputs)

    def test_different_seed_differs(self):
        spec = small_spec()
        a = generate_shift_dataset(spec, 1)
        b = generate_shift_dataset(spec, 2)
        assert not np.array_equal(a.train.inputs, b.train.inputs)

    def test_balanced_classes(self):
        ds = generate_shift_dataset(small_spec(), 3)
        counts = np.bincount(ds.train.labels, minlength=4)
        np.testing.assert_array_equal(counts, [250, 250, 250, 250])
        counts = np.bincount(ds.test.labels, minlength=4)
        np.testing.assert_array_equal(counts, [100, 100, 100, 100])

    def test_unbalanced_total_within_one(self):
        ds = generate_shift_dataset(small_spec(n_train=1002, n_test=401, n_classes=4), 3)
        for split in (ds.train, ds.test):
            counts = np.bincount(split.labels, minlength=4)
            assert counts.max() - counts.min() <= 1

    def test_all_shift_splits_present(self):
        ds = generate_shift_dataset(small_spec(), 4)
        assert set(ds.ood) == {
            (kind, sev) for kind in SHIFT_KINDS for sev in range(1, N_SEVERITIES + 1)
        }

    def test_severity_zero_is_clean_split(self):
        ds = generate_shift_dataset(small_spec(), 5)
        for kind in SHIFT_KINDS:
            split = ds.ood_split(kind, 0)
            assert split is ds.test

    def test_labels_preserved_under_shift(self):
        ds = generate_shift_dataset(small_spec(), 6)
        for key, split in ds.ood.items():
            np.testing.assert_array_equal(split.labels, ds.test.labels)
            assert not np.array_equal(split.inputs, ds.test.inputs), key

    def test_severity_monotone_displacement(self):
        # higher severity moves inputs farther from clean on average
        ds = generate_shift_dataset(small_spec(), 8)
        for kind in SHIFT_KINDS:
            drift = [
                np.abs(ds.ood[(kind, s)].inputs - ds.test.inputs).mean()
                for s in range(1, N_SEVERITIES + 1)
            ]
            assert all(a < b for a, b in zip(drift, drift[1:])), (kind, drift)

    def test_unknown_kind_and_bad_severity(self):
        ds = generate_shift_dataset(small_spec(), 9)
        with pytest.raises(ConfigError):
            ds.ood_split("fog", 1)
        with pytest.raises(DomainError):
            ds.ood_split("rotation", 9)

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            small_spec(n_classes=1)
        with pytest.raises(ConfigError):
            small_spec(n_features=1)
        with pytest.raises(ConfigError):
            small_spec(n_train=2, n_classes=4)


def split_arrays(ds):
    """Every array of ``ds``, named by its split and field."""
    splits = {"train": ds.train, "test": ds.test,
              **{f"ood.{kind}.{severity}": split for (kind, severity), split in ds.ood.items()}}
    return {f"{name}.{field}": getattr(split, field)
            for name, split in splits.items() for field in ("inputs", "labels")}


class TestSharedDataset:
    def test_same_spec_and_seed_is_the_same_object(self):
        assert generate_shift_dataset(small_spec(), 21) is generate_shift_dataset(small_spec(), 21)

    @pytest.mark.parametrize("spec, seed", [(small_spec(), 22), (small_spec(n_features=5), 21)])
    def test_another_seed_or_spec_is_a_new_dataset_equal_to_a_fresh_build(self, spec, seed):
        first = generate_shift_dataset(small_spec(), 21)
        ds = generate_shift_dataset(spec, seed)
        assert ds is not first and (ds.spec, ds.seed) == (spec, seed)
        got, want = split_arrays(ds), split_arrays(generate_shift_dataset.__wrapped__(spec, seed))
        assert got.keys() == want.keys()
        for name, array in want.items():
            np.testing.assert_array_equal(got[name], array, err_msg=name)
            assert got[name].dtype == array.dtype, name

    def test_ood_splits_share_the_clean_labels(self):
        ds = generate_shift_dataset(small_spec(), 23)
        assert all(split.labels is ds.test.labels for split in ds.ood.values())

    def test_an_in_place_write_to_any_array_raises(self):
        arrays = split_arrays(generate_shift_dataset(small_spec(), 24))
        assert len(arrays) == 2 * (2 + len(SHIFT_KINDS) * N_SEVERITIES)
        for array in arrays.values():
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
            with pytest.raises(ValueError, match="read-only"):
                array += 1

    def test_no_field_and_no_ood_entry_can_be_reassigned(self):
        ds = generate_shift_dataset(small_spec(), 25)
        for field in ("spec", "seed", "train", "test", "ood"):
            with pytest.raises(FrozenInstanceError):
                setattr(ds, field, None)
        for field in ("inputs", "labels"):
            with pytest.raises(FrozenInstanceError):
                setattr(ds.train, field, None)
        with pytest.raises(TypeError):
            ds.ood["rotation", 1] = ds.test
        with pytest.raises(TypeError):
            ds.ood["fog", 1] = ds.test


class TestFinetuneSubsample:
    def test_deterministic(self):
        ds = generate_shift_dataset(small_spec(), 10)
        a = finetune_subsample(ds, 40, 0.5)
        b = finetune_subsample(ds, 40, 0.5)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_requested_size_and_skew(self):
        ds = generate_shift_dataset(small_spec(), 11)
        split = finetune_subsample(ds, 40, 0.5)
        assert len(split) == 40
        counts = np.bincount(split.labels, minlength=4)
        assert (counts >= 1).all()
        assert counts[0] > counts[-1]  # earlier classes over-represented

    def test_balanced_when_skew_is_one(self):
        ds = generate_shift_dataset(small_spec(), 12)
        counts = np.bincount(finetune_subsample(ds, 40, 1.0).labels, minlength=4)
        assert counts.max() - counts.min() <= 1

    def test_samples_come_from_train_split(self):
        ds = generate_shift_dataset(small_spec(), 13)
        split = finetune_subsample(ds, 24, 0.6)
        train_rows = {tuple(row) for row in ds.train.inputs}
        assert all(tuple(row) in train_rows for row in split.inputs)

    def test_validation(self):
        ds = generate_shift_dataset(small_spec(), 14)
        with pytest.raises(ConfigError):
            finetune_subsample(ds, 2, 0.5)  # fewer samples than classes
        with pytest.raises(ConfigError):
            finetune_subsample(ds, 40, 0.0)
        with pytest.raises(ConfigError):
            finetune_subsample(ds, 40, 1.5)
