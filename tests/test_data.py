"""Dataset model, CSV round-trip, synthetic generator, stratified splits."""

import hashlib
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import csv_text_by_value
from qpose.data import (
    CSV_BLOCK_ROWS,
    CSV_HEADER,
    CsvFormatError,
    BeamSnrSample,
    Dataset,
    Domain,
    FeatureNormalizer,
    N_CLASSES,
    N_FEATURES,
    ShiftSpec,
    TARGET_CLASS_WEIGHTS,
    apportion,
    dataset_sha256,
    features_matrix,
    generate_synthetic,
    load_csv,
    split_labeled,
    stratified_subset,
    write_csv,
)


def tiny_dataset():
    rng = np.random.default_rng(0)
    samples = [
        BeamSnrSample(rng.normal(size=N_FEATURES), c % N_CLASSES,
                      Domain.SOURCE if c % 2 else Domain.TARGET, session=c % 3)
        for c in range(24)
    ]
    return Dataset(samples)


class TestSample:
    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            BeamSnrSample(np.zeros(35), 0, Domain.SOURCE, 0)

    def test_nonfinite_rejected(self):
        feats = np.zeros(N_FEATURES)
        feats[7] = np.nan
        with pytest.raises(ValueError):
            BeamSnrSample(feats, 0, Domain.SOURCE, 0)

    def test_label_range(self):
        with pytest.raises(ValueError):
            BeamSnrSample(np.zeros(N_FEATURES), 8, Domain.SOURCE, 0)
        with pytest.raises(ValueError):
            BeamSnrSample(np.zeros(N_FEATURES), -1, Domain.SOURCE, 0)

    def test_features_are_read_only(self):
        s = BeamSnrSample(np.zeros(N_FEATURES), 0, Domain.SOURCE, 0)
        with pytest.raises(ValueError):
            s.features[0] = 1.0


class TestCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        ds = generate_synthetic(40, 40, ShiftSpec(seed=3))
        path = tmp_path / "ds.csv"
        write_csv(ds, path)
        back = load_csv(path)
        assert len(back.samples) == len(ds.samples)
        for a, b in zip(ds.samples, back.samples):
            assert (a.features == b.features).all()
            assert (a.label, a.domain, a.session) == (b.label, b.domain, b.session)

    def test_three_row_file(self, tmp_path):
        rows = []
        for label in (0, 3, 7):
            feats = ",".join(str(float(i + label)) for i in range(N_FEATURES))
            rows.append(f"{label},source,1,{feats}")
        path = tmp_path / "three.csv"
        path.write_text(CSV_HEADER + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
        ds = load_csv(path)
        assert [s.label for s in ds.samples] == [0, 3, 7]

    def test_short_row_names_line(self, tmp_path):
        feats35 = ",".join(["0.0"] * 35)
        path = tmp_path / "bad.csv"
        path.write_text(CSV_HEADER + "\n" + f"0,source,1,{feats35}\n", encoding="utf-8")
        with pytest.raises(CsvFormatError, match="line 2"):
            load_csv(path)

    def test_bad_label_names_line(self, tmp_path):
        feats = ",".join(["0.0"] * N_FEATURES)
        good = f"0,source,1,{feats}"
        bad = f"9,target,1,{feats}"
        path = tmp_path / "bad.csv"
        path.write_text(CSV_HEADER + "\n" + good + "\n" + bad + "\n", encoding="utf-8")
        with pytest.raises(CsvFormatError, match="line 3"):
            load_csv(path)

    @pytest.mark.parametrize("text", ["1_0", " 1.5 ", "\t2", "+1", ".5", "5.", "-0.0", "1e-400",
                                      "nan", "-inf", "1e500", "0x1p3", "", "  ", "1.5e",
                                      "1__0", "_1"])
    def test_feature_parse_agrees_with_float(self, tmp_path, text):
        feats = ["0.0"] * N_FEATURES
        feats[4] = text
        path = tmp_path / "probe.csv"
        good = "0,source,1," + ",".join(["0.0"] * N_FEATURES)
        path.write_text(f"{CSV_HEADER}\n{good}\n0,source,1,{','.join(feats)}\n",
                        encoding="utf-8")
        try:
            want = float(text)
        except ValueError:
            want = None
        if want is None or not np.isfinite(want):
            with pytest.raises(CsvFormatError, match="line 3"):
                load_csv(path)
        else:
            got = load_csv(path).samples[1].features[4]
            assert np.float64(want).tobytes() == got.tobytes()

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("nope,nope\n", encoding="utf-8")
        with pytest.raises(CsvFormatError):
            load_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "absent.csv")


# Values where repr switches notation (1e-4, 1e16), the subnormal and
# normal extremes, and signed zero.
EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-4,
               9.999999999999999e-05, 1e16, 9999999999999998.0, 1.7976931348623157e308,
               -1.7976931348623157e308, 0.1, -1e-300]

FEATURE_FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS),
                           st.floats(allow_nan=False, allow_infinity=False, width=64))


def rows_dataset(features, meta):
    return Dataset([BeamSnrSample(f, label, domain, session)
                    for f, (label, domain, session) in zip(features, meta)])


class TestCanonicalText:
    def test_text_and_file_equal_per_value_oracle(self, tmp_path):
        ds = generate_synthetic(2 * CSV_BLOCK_ROWS, 100, ShiftSpec(seed=5))
        feats = np.stack([s.features for s in ds.samples])
        feats.flat[: len(EDGE_FLOATS)] = EDGE_FLOATS
        ds = rows_dataset(feats, [(s.label, s.domain, s.session) for s in ds.samples])
        want = csv_text_by_value(ds)
        path = tmp_path / "ds.csv"
        digest = write_csv(ds, path)
        assert path.read_bytes() == want.encode("utf-8")
        assert digest == dataset_sha256(ds) == hashlib.sha256(want.encode("utf-8")).hexdigest()

    def test_empty_dataset_is_header_only(self, tmp_path):
        path = tmp_path / "e.csv"
        assert write_csv(Dataset([]), path) == dataset_sha256(Dataset([]))
        assert path.read_text(encoding="utf-8") == CSV_HEADER + "\n"

    @given(features=hnp.arrays(np.float64, st.tuples(st.integers(1, 40), st.just(N_FEATURES)),
                               elements=FEATURE_FLOATS),
           meta=st.lists(st.tuples(st.integers(0, N_CLASSES - 1), st.sampled_from(Domain),
                                   st.integers(-3, 10**6)), min_size=40, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, features, meta):
        ds = rows_dataset(features, meta)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ds.csv"
            digest = write_csv(ds, path)
            data = path.read_bytes()
            back = load_csv(path)
        assert len(back.samples) == len(ds.samples)
        for a, b in zip(ds.samples, back.samples):
            assert a.features.tobytes() == b.features.tobytes()
            assert (a.label, a.domain, a.session) == (b.label, b.domain, b.session)
        assert digest == dataset_sha256(ds) == dataset_sha256(back)
        assert digest == hashlib.sha256(data).hexdigest()


class TestGenerator:
    def test_same_seed_identical(self, tmp_path):
        spec = ShiftSpec(seed=11)
        a = generate_synthetic(100, 100, spec)
        b = generate_synthetic(100, 100, spec)
        assert dataset_sha256(a) == dataset_sha256(b)

    def test_different_seed_differs(self):
        a = generate_synthetic(50, 50, ShiftSpec(seed=1))
        b = generate_synthetic(50, 50, ShiftSpec(seed=2))
        assert dataset_sha256(a) != dataset_sha256(b)

    def test_target_counts_match_published_proportions(self):
        ds = generate_synthetic(800, 1040, ShiftSpec(seed=0))
        counts = ds.class_counts(Domain.TARGET)
        assert counts.tolist() == [151, 149, 173, 129, 88, 96, 119, 135]
        assert counts.sum() == 1040

    def test_null_shift_matches_source_distribution(self):
        spec = ShiftSpec(mean_offset_scale=0.0, feature_gain_spread=0.0,
                         noise_sigma_source=2.0, noise_sigma_target=2.0, seed=5)
        ds = generate_synthetic(4000, 4000, spec)
        src = ds.by_domain(Domain.SOURCE)
        tgt = ds.by_domain(Domain.TARGET)
        for c in range(N_CLASSES):
            xs = features_matrix([s for s in src if s.label == c])
            xt = features_matrix([s for s in tgt if s.label == c])
            n = min(len(xs), len(xt))
            bound = 3 * 2.0 / np.sqrt(n)
            assert np.abs(xs.mean(axis=0) - xt.mean(axis=0)).max() < bound * 2

    def test_source_data_independent_of_shift_knobs(self):
        weak = generate_synthetic(60, 60, ShiftSpec(mean_offset_scale=0.1, seed=9))
        strong = generate_synthetic(60, 60, ShiftSpec(mean_offset_scale=50.0, seed=9))
        a = features_matrix(weak.by_domain(Domain.SOURCE))
        b = features_matrix(strong.by_domain(Domain.SOURCE))
        assert (a == b).all()

    def test_nonpositive_counts_rejected(self):
        with pytest.raises(ValueError):
            generate_synthetic(0, 10, ShiftSpec(seed=0))

    def test_negative_spread_rejected(self):
        with pytest.raises(ValueError):
            ShiftSpec(feature_gain_spread=-0.1)

    def test_sanity_ceiling_zero_noise_zero_shift(self):
        spec = ShiftSpec(mean_offset_scale=0.0, feature_gain_spread=0.0,
                         noise_sigma_source=0.0, noise_sigma_target=0.0, seed=2)
        ds = generate_synthetic(80, 80, spec)
        # without noise or shift every sample, target included, sits on its
        # class anchor
        anchors = np.stack([next(s.features for s in ds.samples if s.label == c)
                            for c in range(N_CLASSES)])
        for s in ds.samples:
            assert (s.features == anchors[s.label]).all()
            d = np.linalg.norm(anchors - s.features, axis=1)
            assert int(np.argmin(d)) == s.label


class TestApportion:
    @given(total=st.integers(0, 500),
           weights=st.lists(st.floats(0.01, 10), min_size=1, max_size=12))
    @settings(max_examples=80)
    def test_sums_and_proportionality(self, total, weights):
        counts = apportion(total, weights)
        assert sum(counts) == total
        assert all(c >= 0 for c in counts)
        w = np.array(weights) / sum(weights)
        assert np.abs(np.array(counts) - w * total).max() < 1.0 + 1e-9

    def test_exact_split(self):
        assert apportion(10, [1, 1]) == [5, 5]
        assert apportion(3, [2, 1]) == [2, 1]


class TestSplit:
    def test_fraction_one_gives_empty_evaluation(self):
        split = split_labeled(tiny_dataset(), Domain.SOURCE, fraction=1.0, seed=0)
        assert split.evaluation == []
        assert len(split.labeled) == 12

    def test_disjoint_and_exhaustive(self):
        ds = generate_synthetic(120, 120, ShiftSpec(seed=4))
        split = split_labeled(ds, Domain.SOURCE, fraction=0.3, seed=1)
        ids = lambda xs: {id(s) for s in xs}
        assert ids(split.labeled) & ids(split.evaluation) == set()
        assert ids(split.labeled) | ids(split.evaluation) == ids(ds.by_domain(Domain.SOURCE))

    def test_same_seed_identical(self):
        ds = generate_synthetic(200, 200, ShiftSpec(seed=8))
        a = split_labeled(ds, Domain.TARGET, count=50, seed=3)
        b = split_labeled(ds, Domain.TARGET, count=50, seed=3)
        assert [id(s) for s in a.labeled] == [id(s) for s in b.labeled]

    def test_count_and_fraction_mutually_exclusive(self):
        ds = tiny_dataset()
        with pytest.raises(ValueError):
            split_labeled(ds, Domain.SOURCE, fraction=0.5, count=3, seed=0)
        with pytest.raises(ValueError):
            split_labeled(ds, Domain.SOURCE, seed=0)

    def test_oversized_count_rejected(self):
        with pytest.raises(ValueError):
            split_labeled(tiny_dataset(), Domain.SOURCE, count=1000, seed=0)

    def test_stratified_when_all_classes_present(self):
        ds = generate_synthetic(400, 400, ShiftSpec(seed=1))
        split = split_labeled(ds, Domain.SOURCE, fraction=0.25, seed=0)
        assert split.stratified
        labels = [s.label for s in split.labeled]
        # every class contributes to the labeled subset
        assert set(labels) == set(range(N_CLASSES))

    def test_unstratified_fallback_flag(self):
        feats = np.zeros(N_FEATURES)
        samples = [BeamSnrSample(feats, 0, Domain.SOURCE, 0) for _ in range(10)]
        chosen, rest, stratified = stratified_subset(samples, 4, seed=0)
        assert not stratified
        assert len(chosen) == 4 and len(rest) == 6

    @given(labels=st.lists(st.integers(0, N_CLASSES - 1), min_size=1, max_size=60),
           data=st.data(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_split_meets_class_quotas_property(self, labels, data, seed):
        samples = [BeamSnrSample(np.full(N_FEATURES, float(i)), label, Domain.SOURCE, 0)
                   for i, label in enumerate(labels)]
        count = data.draw(st.integers(0, len(samples)), label="count")
        chosen, rest, stratified = stratified_subset(samples, count, seed)
        ids = lambda xs: [id(s) for s in xs]
        # disjoint and covering, each part in pool order
        assert sorted(ids(chosen) + ids(rest)) == sorted(ids(samples))
        chosen_ids = set(ids(chosen))
        assert ids(chosen) == [id(s) for s in samples if id(s) in chosen_ids]
        assert ids(rest) == [id(s) for s in samples if id(s) not in chosen_ids]
        per_class = np.bincount(labels, minlength=N_CLASSES)
        assert stratified == bool((per_class > 0).all())
        got = np.bincount([s.label for s in chosen], minlength=N_CLASSES)
        assert got.sum() == count
        if stratified:
            assert got.tolist() == apportion(count, per_class)

        ds = Dataset(samples)
        split = split_labeled(ds, Domain.SOURCE, count=count, seed=seed)
        assert ids(split.labeled) == ids(chosen) and ids(split.evaluation) == ids(rest)
        assert split.stratified == stratified

    @given(count=st.integers(0, 40), seed=st.integers(0, 99))
    @settings(max_examples=40, deadline=None)
    def test_subset_size_property(self, count, seed):
        ds = generate_synthetic(40, 40, ShiftSpec(seed=0))
        pool = ds.by_domain(Domain.SOURCE)
        chosen, rest, _ = stratified_subset(pool, count, seed)
        assert len(chosen) == count
        assert len(chosen) + len(rest) == len(pool)


class TestNormalizer:
    def test_fit_transform_standardizes(self):
        ds = generate_synthetic(300, 300, ShiftSpec(seed=12))
        src = ds.by_domain(Domain.SOURCE)
        norm = FeatureNormalizer.fit(src)
        z = norm.transform(features_matrix(src))
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-10)

    def test_constant_feature_keeps_unit_scale(self):
        samples = [BeamSnrSample(np.full(N_FEATURES, 4.0), 0, Domain.SOURCE, 0)
                   for _ in range(5)]
        norm = FeatureNormalizer.fit(samples)
        z = norm.transform(np.full((2, N_FEATURES), 4.0))
        np.testing.assert_allclose(z, 0.0, atol=1e-15)

    def test_identity(self):
        x = np.random.default_rng(0).normal(size=(3, N_FEATURES))
        assert (FeatureNormalizer.identity().transform(x) == x).all()
