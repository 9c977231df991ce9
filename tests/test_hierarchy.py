import functools
import re
import struct
import tempfile
import threading
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_model, corruptions, normalize_values
from slowtrack import hierarchy
from slowtrack.cli import main
from slowtrack.encoder import LayerEncoder, encode
from slowtrack.errors import DataError, LineSearchError, ModelFormatError, OptimizationError
from slowtrack.hierarchy import (
    ADAPT_OPTIMIZER,
    HierarchicalModel,
    HierFeature,
    PretrainConfig,
    _random_orthonormal_rows,
    adapt,
    encode_hier,
    hier_features,
    load_model,
    pretrain,
    save_model,
)
from slowtrack.objectives import SlownessObjective
from slowtrack.optimizer import LbfgsConfig
from slowtrack.patches import Patch
from slowtrack.whitening import apply_whitening


def reference_sub_windows(values32, stride=16):
    """Normalized 16x16 sub-windows of one 32x32 patch, row-major cell order."""
    img = np.asarray(values32, dtype=np.float64).reshape(32, 32)
    return [
        normalize_values(img[oy : oy + 16, ox : ox + 16])
        for oy in range(0, 17, stride)
        for ox in range(0, 17, stride)
    ]


def reference_encode_hier(model, values32):
    """One patch at a time: the oracle for the batched `hier_features`."""
    subs = np.stack(reference_sub_windows(values32, model.sub_patch_stride))
    l1 = encode(model.layer1, subs).ravel()
    l2 = encode(model.layer2, apply_whitening(model.whitening, l1))
    return np.concatenate([l1, l2])


def patch32(values):
    return Patch(32, normalize_values(values))


def patch_set(arrays, side):
    """One (L, side**2) array of normalized patches per image sequence."""
    return [np.stack([normalize_values(a) for a in seq]) for seq in arrays]


def random_patch_sets(rng, n16=8, n32=8):
    """Random object-patch sets; large n16/n32 make the data span its space.

    The large-gamma pinning prediction only holds when the patch matrix has
    full column rank: the pull term gamma*sum ||(W - W_old) x_i||^2 cannot
    see changes of W orthogonal to every patch.
    """
    arrays16 = [[rng.random((16, 16)) for _ in range(n16)]]
    arrays32 = [[rng.random((32, 32)) for _ in range(n32)]]
    return patch_set(arrays16, 16), patch_set(arrays32, 32)


FAST = PretrainConfig(
    lam=2.0, f1=8, f2=4, optimizer=LbfgsConfig(max_iters=15, tol=0.0), seed=3
)


def fit_failure(run):
    """The OptimizationError `run()` raises, checked to leave no RuntimeWarning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(OptimizationError) as exc:
            run()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    # the layer's message replaces the optimizer's own LineSearchError
    assert not isinstance(exc.value, LineSearchError)
    return str(exc.value)


class TestPretrain:
    def test_deterministic_bit_identical(self, small_training_sets, tmp_path):
        ts16, ts32 = small_training_sets
        m1 = pretrain(ts16, ts32, FAST).model
        m2 = pretrain(ts16, ts32, FAST).model
        save_model(m1, tmp_path / "a.hftm")
        save_model(m2, tmp_path / "b.hftm")
        assert (tmp_path / "a.hftm").read_bytes() == (tmp_path / "b.hftm").read_bytes()

    def test_static_sequences_have_zero_layer2_slowness(self):
        # several distinct static sequences: whitening sees variation across
        # sequences, but each sequence repeats one frame
        rng = np.random.default_rng(0)
        imgs16 = [rng.random((16, 16)) for _ in range(4)]
        imgs32 = [rng.random((32, 32)) for _ in range(4)]
        ts16 = patch_set([[img] * 5 for img in imgs16], 16)
        ts32 = patch_set([[img] * 5 for img in imgs32], 32)
        model = pretrain(ts16, ts32, FAST).model
        w2 = model.layer2.weights
        slowness_only = 0.0
        for img in imgs32:
            vec = apply_whitening(
                model.whitening,
                np.concatenate(
                    [encode(model.layer1, s) for s in reference_sub_windows(img32_values(img))]
                ),
            )
            seq = [np.tile(vec, (5, 1))]
            with_term = SlownessObjective(seq, lam=1.0, eps_sqrt=0.0, eps_abs=0.0)
            without = SlownessObjective(seq, lam=0.0, eps_sqrt=0.0, eps_abs=0.0)
            slowness_only += with_term.evaluate(w2)[0] - without.evaluate(w2)[0]
        assert slowness_only == pytest.approx(0.0, abs=1e-12)

    def test_toy_run_improves_on_random_init(self, small_training_sets):
        ts16, ts32 = small_training_sets
        res = pretrain(ts16, ts32, FAST)
        assert res.layer1_opt.value < res.layer1_opt.trace[0][0]
        assert res.layer2_opt.value < res.layer2_opt.trace[0][0]

    def test_failed_line_search_named_by_layer(self, small_training_sets):
        ts16, ts32 = small_training_sets
        cfg = PretrainConfig(lam=1e300, f1=8, f2=4, optimizer=LbfgsConfig(max_iters=3))
        message = fit_failure(lambda: pretrain(ts16, ts32, cfg))
        assert message == "layer1: line search failed during training"

    def test_empty_training_set_rejected(self, small_training_sets):
        _, ts32 = small_training_sets
        with pytest.raises(DataError, match="empty"):
            pretrain([], ts32, FAST)

    def test_wrong_side_rejected(self, small_training_sets):
        ts16, ts32 = small_training_sets
        with pytest.raises(DataError, match="expected 16x16"):
            pretrain(ts32, ts32, FAST)

    def test_seqs32_from_a_generator_gives_the_same_model(self, small_training_sets, tmp_path):
        ts16, ts32 = small_training_sets
        save_model(pretrain(ts16, ts32, FAST).model, tmp_path / "list.hftm")
        save_model(pretrain(ts16, (s for s in ts32), FAST).model, tmp_path / "gen.hftm")
        assert (tmp_path / "list.hftm").read_bytes() == (tmp_path / "gen.hftm").read_bytes()

    def test_seqs32_read_only_after_layer1_trains(self, small_training_sets, monkeypatch):
        ts16, ts32 = small_training_sets
        events = []
        fit_layer = hierarchy._fit_layer

        def logged_fit(obj, w0, cfg, failure_message):
            result = fit_layer(obj, w0, cfg, failure_message)
            events.append(failure_message.split(":")[0] + " trained")
            return result

        def seqs32():
            events.append("seqs32 pulled")
            yield from ts32

        monkeypatch.setattr(hierarchy, "_fit_layer", logged_fit)
        pretrain(ts16, seqs32(), FAST)
        assert events == ["layer1 trained", "seqs32 pulled", "layer2 trained"]

    @pytest.mark.parametrize(
        "seqs32, message",
        [
            ((), "layer2: training set is empty"),
            ([np.empty((0, 1024))], "layer2: a training sequence is empty"),
            ([np.zeros((3, 256))], "layer2: expected 32x32 patches, got an array of shape"),
        ],
        ids=["empty-iterable", "empty-sequence", "wrong-side"],
    )
    def test_seqs32_errors_from_a_generator(self, small_training_sets, seqs32, message):
        ts16, _ = small_training_sets
        with pytest.raises(DataError, match=re.escape(message)):
            pretrain(ts16, (s for s in seqs32), FAST)


class TestPretrainThreads:
    """Each layer trains with a helper thread, and no thread outlives pretrain."""

    @pytest.fixture
    def seqs16(self):
        # 300 rows of 256 dims: a Gram-form layer-1 objective with rows to split
        return list(np.random.default_rng(4).standard_normal((2, 150, 256)))

    CFG = replace(FAST, f1=24, optimizer=LbfgsConfig(max_iters=3))

    def test_returns(self, forced_splits, seqs16, small_training_sets):
        before = threading.enumerate()
        pretrain(seqs16, small_training_sets[1], self.CFG)
        assert forced_splits and threading.enumerate() == before

    def test_raises_in_layer1(self, forced_splits, seqs16, small_training_sets):
        before = threading.enumerate()
        cfg = replace(self.CFG, lam=1e300)
        message = fit_failure(lambda: pretrain(seqs16, small_training_sets[1], cfg))
        assert message == "layer1: line search failed during training"
        assert forced_splits and threading.enumerate() == before

    def test_raises_after_layer1(self, forced_splits, seqs16):
        before = threading.enumerate()
        with pytest.raises(DataError, match="layer2: training set is empty"):
            pretrain(seqs16, [], self.CFG)
        assert forced_splits and threading.enumerate() == before


def img32_values(img):
    return normalize_values(img)


class TestEncodeHier:
    def test_default_dimension_arithmetic(self):
        model = build_model(f1=64, f2=128, whiten_dim=64)
        feat = encode_hier(model, patch32(np.random.default_rng(1).random((32, 32))))
        assert feat.layer1_part.size == 4 * 32 == 128
        assert feat.layer2_part.size == 64
        assert feat.combined.size == 192
        assert model.n_sub_patches * model.layer1.output_dim + model.layer2.output_dim == 192

    def test_zero_patch_layer1_part_zero(self):
        model = build_model(f1=8, f2=4, eps_sqrt=0.0)
        feat = encode_hier(model, Patch(32, np.zeros(1024)))
        np.testing.assert_array_equal(feat.layer1_part, np.zeros(16))

    def test_subpatch_constant_offsets_invisible(self):
        rng = np.random.default_rng(2)
        model = build_model(f1=8, f2=4)
        base = rng.random((32, 32)) * 0.25 + 0.25
        shifted = base.copy()
        offsets = [[0.0, 0.2], [0.35, 0.1]]
        for by in range(2):
            for bx in range(2):
                shifted[by * 16 : by * 16 + 16, bx * 16 : bx * 16 + 16] += offsets[by][bx]
        f1 = encode_hier(model, patch32(base))
        f2 = encode_hier(model, patch32(shifted))
        np.testing.assert_allclose(f1.combined, f2.combined, atol=1e-9)

    def test_stacking_consistency(self):
        rng = np.random.default_rng(3)
        model = build_model(f1=8, f2=4)
        p = patch32(rng.random((32, 32)))
        feat = encode_hier(model, p)
        manual = np.concatenate(
            [encode(model.layer1, s) for s in reference_sub_windows(p.values)]
        )
        assert np.max(np.abs(feat.layer1_part - manual)) <= 1e-12

    def test_requires_32_patch(self):
        model = build_model()
        with pytest.raises(ValueError, match="32"):
            encode_hier(model, Patch(16, np.zeros(256)))

    def test_feature_parts_nonnegative(self):
        rng = np.random.default_rng(4)
        model = build_model(f1=8, f2=4)
        feat = encode_hier(model, patch32(rng.random((32, 32))))
        assert np.all(feat.layer1_part >= 0)
        assert np.all(feat.layer2_part >= 0)


@functools.cache
def cached_model(stride):
    return build_model(f1=8, f2=4, stride=stride, seed=stride)


@functools.cache
def valid_model_bytes(f1=2, f2=2):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.hftm"
        save_model(build_model(f1=f1, f2=f2), path)
        return path.read_bytes()


NAN = struct.pack("<d", float("nan"))


def in_section(tag, edit):
    """A fault: section `tag`'s payload replaced by `edit(payload)`, its length field updated."""
    def fault(data):
        pos = 5
        while data[pos : pos + 4] != tag:
            pos += 8 + struct.unpack_from("<I", data, pos + 4)[0]
        end = pos + 8 + struct.unpack_from("<I", data, pos + 4)[0]
        payload = edit(data[pos + 8 : end])
        return data[: pos + 4] + struct.pack("<I", len(payload)) + payload + data[end:]
    return fault


def put(at, raw):
    """An edit that writes `raw` over the payload from byte `at`, counted from the end if < 0."""
    def edit(payload):
        start = at % len(payload)
        return payload[:start] + raw + payload[start + len(raw) :]
    return edit


def meta(*lines):
    """A META payload holding `lines`."""
    raws = [line.encode("utf-8") for line in lines]
    return struct.pack("<I", len(raws)) + b"".join(struct.pack("<I", len(r)) + r for r in raws)


def odd_filter_count(data):
    """Layer 1 cut to 7 filters, with the pooling dims (7, 3) that match that count."""
    data = in_section(b"L1W ", lambda p: struct.pack("<II", 7, 256) + p[8 : 8 + 7 * 256 * 8])(data)
    return in_section(b"L1P ", lambda p: struct.pack("<II", 7, 3))(data)


# faults of one field each in a build_model(f1=8, f2=4) file, with the text naming it
FIELD_FAULTS = {
    "pooling-dims": (in_section(b"L1P ", put(4, struct.pack("<I", 3))),
                     "inconsistent field layer1 pooling dims"),
    "layer1-eps": (in_section(b"L1E ", put(0, NAN)), "non-finite values in field layer1 eps_sqrt"),
    "layer2-eps": (in_section(b"L2E ", put(0, NAN)), "non-finite values in field layer2 eps_sqrt"),
    "whitening-mean": (in_section(b"WHIT", put(16, NAN)),
                       "non-finite values in field whitening mean"),
    "whitening-projection": (in_section(b"WHIT", put(-8, NAN)),
                             "non-finite values in field whitening projection"),
    "whitening-eps": (in_section(b"WHIT", put(8, NAN)),
                      "non-finite values in field whitening eps_reg"),
    "metadata-utf8": (in_section(b"META", put(8, b"\xff")),
                      "invalid UTF-8 in field metadata line 0"),
    "metadata-no-equals": (in_section(b"META", put(24, b":")), "metadata line 0 is not key=value"),
    "odd-filter-count": (odd_filter_count, "filter count must be even and >= 2, got 7"),
    "zero-stride": (in_section(b"META", lambda p: meta("sub_patch_stride=0")),
                    "sub-patch stride must be >= 1"),
}

# with FIELD_FAULTS, one fault for each check of the model reader
OTHER_FAULTS = {
    "magic": lambda d: b"XFTM" + d[4:],
    "version": lambda d: d[:4] + bytes([9]) + d[5:],
    "section-tag": lambda d: d[:5] + b"L9W " + d[9:],
    "truncated-section": lambda d: d[:20],
    "truncated-field": in_section(b"L1E ", lambda p: p[:4]),
    "unread-bytes": in_section(b"L1E ", lambda p: p + bytes(8)),
    "appended-bytes": lambda d: d + bytes(7),
    "non-integer-stride": in_section(b"META", lambda p: meta("sub_patch_stride=xx")),
    "no-stride": in_section(b"META", lambda p: meta()),
    # more digits than int() converts by default
    "huge-stride": in_section(b"META", lambda p: meta("sub_patch_stride=" + "1" * 5000)),
    "reserved-key": in_section(b"META", lambda p: meta("sub_patch_stride=16", "sub_patch_stride=16")),
}
ALL_FAULTS = {**{k: fault for k, (fault, _) in FIELD_FAULTS.items()}, **OTHER_FAULTS}


@st.composite
def patch_batches(draw):
    """(stride, (N, 1024) patches): random, all-zero, constant, or with a
    constant 16x16 corner, so that some sub-windows normalize to zero."""
    stride = draw(st.sampled_from([16, 8, 5]))
    kinds = draw(st.lists(st.sampled_from(["random", "zero", "flat", "flat_corner"]), max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    rows = []
    for kind in kinds:
        img = rng.random((32, 32))
        if kind == "zero":
            img[:] = 0.0
        elif kind == "flat":
            img[:] = 0.4
        elif kind == "flat_corner":
            img[:16, :16] = 0.7
        rows.append(normalize_values(img))
    return stride, np.array(rows).reshape(len(rows), 1024)


class TestHierFeatures:
    @settings(max_examples=60, deadline=None)
    @given(patch_batches())
    def test_matches_per_patch_reference_bit_for_bit(self, case):
        stride, x = case
        model = cached_model(stride)
        got = hier_features(model, x)
        width = model.n_sub_patches * model.layer1.output_dim + model.layer2.output_dim
        assert got.shape == (len(x), width)
        for row, values in zip(got, x):
            assert row.tobytes() == reference_encode_hier(model, values).tobytes()

    def test_encode_hier_is_one_row(self):
        model = build_model(f1=8, f2=4)
        p = patch32(np.random.default_rng(7).random((32, 32)))
        feat = encode_hier(model, p)
        assert feat.combined.tobytes() == hier_features(model, p.values[None])[0].tobytes()
        n1 = model.n_sub_patches * model.layer1.output_dim
        np.testing.assert_array_equal(feat.layer1_part, feat.combined[:n1])


class TestAdapt:
    def test_adaptation_stops_on_the_pretraining_tolerance(self):
        # one stop tolerance for every L-BFGS run, stated once in LbfgsConfig
        assert LbfgsConfig().tol == PretrainConfig().optimizer.tol == ADAPT_OPTIMIZER.tol > 0

    def test_gamma_zero_warm_start_does_not_regress(self, small_training_sets):
        ts16, ts32 = small_training_sets
        res = pretrain(ts16, ts32, FAST)
        adapted = adapt(
            res.model,
            ts16,
            ts32,
            lam=FAST.lam,
            gamma=0.0,
            optimizer_cfg=LbfgsConfig(max_iters=10, tol=0.0),
        )
        assert adapted.layers[0].value_after <= res.layer1_opt.value + 1e-9

    def test_huge_gamma_pins_filters(self, small_training_sets):
        ts16, ts32 = small_training_sets
        model = pretrain(ts16, ts32, FAST).model
        rng = np.random.default_rng(9)
        obj16, obj32 = random_patch_sets(rng, n16=512, n32=64)
        adapted = adapt(model, obj16, obj32, lam=2.0, gamma=1e6)
        for stats in adapted.layers:
            assert stats.relative_change < 1e-2

    def test_single_repeated_patch_slowness_inactive(self, small_training_sets):
        ts16, ts32 = small_training_sets
        model = pretrain(ts16, ts32, FAST).model
        rng = np.random.default_rng(10)
        img16, img32 = rng.random((16, 16)), rng.random((32, 32))
        obj16 = patch_set([[img16] * 6], 16)
        obj32 = patch_set([[img32] * 6], 32)
        adapted = adapt(model, obj16, obj32, lam=5.0, gamma=10.0)
        # identical consecutive inputs: the slowness term is zero throughout,
        # so the eps-free objective equals reconstruction + regularizer
        w = adapted.model.layer1.weights
        x = normalize_values(img16)
        with_slowness = SlownessObjective(
            [np.tile(x, (6, 1))], lam=5.0, eps_sqrt=0.0, eps_abs=0.0
        ).evaluate(w)[0]
        without = SlownessObjective(
            [np.tile(x, (6, 1))], lam=0.0, eps_sqrt=0.0, eps_abs=0.0
        ).evaluate(w)[0]
        assert with_slowness == pytest.approx(without, abs=1e-12)

    def test_each_layer_keeps_its_eps_sqrt(self, small_training_sets):
        # the model file stores eps_sqrt per layer; adaptation optimizes and
        # encodes with that value, whatever it is
        ts16, ts32 = small_training_sets
        model = build_model(eps_sqrt=1e-3)
        res = adapt(model, ts16, ts32, lam=2.0, gamma=10.0, optimizer_cfg=LbfgsConfig(max_iters=1))
        want = SlownessObjective(ts16, 2.0, eps_sqrt=1e-3).evaluate(model.layer1.weights)[0]
        assert res.layers[0].value_before == pytest.approx(want, rel=1e-12)
        assert res.model.layer1.eps_sqrt == res.model.layer2.eps_sqrt == 1e-3

    def test_input_model_unchanged(self, small_training_sets):
        ts16, ts32 = small_training_sets
        model = pretrain(ts16, ts32, FAST).model
        before = model.layer1.weights.copy()
        adapt(model, ts16, ts32, lam=2.0, gamma=10.0)
        np.testing.assert_array_equal(model.layer1.weights, before)

    def test_failed_line_search_named_by_layer(self, small_training_sets):
        ts16, ts32 = small_training_sets
        model = build_model()
        message = fit_failure(lambda: adapt(model, ts16, ts32, lam=1e300, gamma=100.0))
        assert message == "layer1: line search failed during adaptation"

    @pytest.mark.parametrize("weight", ["lam", "gamma"])
    def test_nan_weight_rejected(self, small_training_sets, weight):
        # NaN fails every comparison, so a bare `< 0` test would let it
        # through and the term would silently drop out
        ts16, ts32 = small_training_sets
        weights = {"lam": 2.0, "gamma": 10.0, weight: float("nan")}
        with pytest.raises(ValueError, match="must be finite and >= 0"):
            adapt(build_model(), ts16, ts32, **weights)


class TestModelFile:
    def test_save_load_save_byte_identical(self, small_training_sets, tmp_path):
        ts16, ts32 = small_training_sets
        model = pretrain(ts16, ts32, FAST).model
        p1, p2 = tmp_path / "m1.hftm", tmp_path / "m2.hftm"
        save_model(model, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_exact_fields(self, tmp_path):
        model = build_model(f1=8, f2=4)
        path = tmp_path / "m.hftm"
        save_model(model, path)
        back = load_model(path)
        np.testing.assert_array_equal(back.layer1.weights, model.layer1.weights)
        np.testing.assert_array_equal(back.layer2.weights, model.layer2.weights)
        np.testing.assert_array_equal(back.whitening.mean, model.whitening.mean)
        np.testing.assert_array_equal(
            back.whitening.projection, model.whitening.projection
        )
        assert back.whitening.eps_reg == model.whitening.eps_reg
        assert back.sub_patch_stride == model.sub_patch_stride
        assert back.metadata == model.metadata

    def test_encoding_identical_after_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        model = build_model(f1=8, f2=4)
        save_model(model, tmp_path / "m.hftm")
        back = load_model(tmp_path / "m.hftm")
        p = patch32(rng.random((32, 32)))
        np.testing.assert_array_equal(
            encode_hier(model, p).combined, encode_hier(back, p).combined
        )

    def test_corrupted_magic_names_offset_zero(self, tmp_path):
        model = build_model()
        path = tmp_path / "m.hftm"
        save_model(model, path)
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ModelFormatError, match="offset 0"):
            load_model(path)

    def test_version_mismatch(self, tmp_path):
        model = build_model()
        path = tmp_path / "m.hftm"
        save_model(model, path)
        data = bytearray(path.read_bytes())
        data[4] = 9
        path.write_bytes(bytes(data))
        with pytest.raises(ModelFormatError, match="version 9"):
            load_model(path)

    def test_truncation_detected(self, tmp_path):
        model = build_model()
        path = tmp_path / "m.hftm"
        save_model(model, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ModelFormatError, match="truncated"):
            load_model(path)

    def test_non_finite_weight_named(self, tmp_path):
        model = build_model(f1=8, f2=4)
        path = tmp_path / "m.hftm"
        save_model(model, path)
        data = bytearray(path.read_bytes())
        # first weight starts after magic(4) + version(1) + tag(4) + len(4) + dims(8)
        data[21:29] = np.array([np.nan]).tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(ModelFormatError, match="layer1 weights"):
            load_model(path)

    def test_non_integer_stride_metadata(self, tmp_path):
        path = tmp_path / "m.hftm"
        save_model(build_model(), path)
        data = path.read_bytes()
        assert data.count(b"sub_patch_stride=16") == 1
        # same length, so the line-length prefix stays valid
        path.write_bytes(data.replace(b"sub_patch_stride=16", b"sub_patch_stride=xx"))
        with pytest.raises(ModelFormatError, match="sub_patch_stride='xx'"):
            load_model(path)

    def test_overlong_stride_metadata(self, tmp_path):
        # more digits than int() converts: the same message, the value cut short
        path = tmp_path / "m.hftm"
        path.write_bytes(ALL_FAULTS["huge-stride"](valid_model_bytes()))
        with pytest.raises(ModelFormatError) as err:
            load_model(path)
        assert str(err.value).endswith(
            f"metadata sub_patch_stride='{'1' * 40}'... (5000 characters) is not an integer"
        )
        assert "int_max_str_digits" not in str(err.value)

    def test_appended_bytes_rejected(self, tmp_path):
        path = tmp_path / "m.hftm"
        save_model(build_model(), path)
        size = path.stat().st_size
        path.write_bytes(path.read_bytes() + bytes(7))
        with pytest.raises(ModelFormatError, match=f"7 unread bytes .* offset {size}$"):
            load_model(path)

    def test_overlong_section_rejected(self, tmp_path):
        path = tmp_path / "m.hftm"
        save_model(build_model(), path)
        data = path.read_bytes()
        at = data.index(b"L1E ")
        assert data[at + 4 : at + 8] == struct.pack("<I", 8)
        # a 16-byte eps section whose length field says so
        end = at + 16
        grown = struct.pack("<I", 16) + data[at + 8 : end] + bytes(8)
        path.write_bytes(data[: at + 4] + grown + data[end:])
        with pytest.raises(
            ModelFormatError, match=f"8 unread bytes after layer1 eps_sqrt at byte offset {end}$"
        ):
            load_model(path)


    def test_truncated_field_names_file_offset(self, tmp_path):
        path = tmp_path / "m.hftm"
        save_model(build_model(), path)
        data = path.read_bytes()
        at = data.index(b"L1E ")
        # a 4-byte eps section whose length field says so: the 8-byte
        # value is cut short at the section's first payload byte
        cut = data[: at + 4] + struct.pack("<I", 4) + data[at + 8 : at + 12] + data[at + 16 :]
        path.write_bytes(cut)
        with pytest.raises(
            ModelFormatError,
            match=f"truncated while reading layer1 eps_sqrt at byte offset {at + 8}$",
        ):
            load_model(path)

    @pytest.mark.parametrize("fault, text", FIELD_FAULTS.values(), ids=list(FIELD_FAULTS))
    def test_field_fault_named(self, tmp_path, fault, text):
        path = tmp_path / "m.hftm"
        path.write_bytes(fault(valid_model_bytes(8, 4)))
        with pytest.raises(ModelFormatError, match=re.escape(text)):
            load_model(path)

    @pytest.mark.parametrize("fault", ALL_FAULTS.values(), ids=list(ALL_FAULTS))
    def test_every_fault_exits_3_naming_the_file(self, tmp_path, capsys, fault):
        path = tmp_path / "m.hftm"
        path.write_bytes(fault(valid_model_bytes(8, 4)))
        code = main(["track", "--raw-only", "--model", str(path), "--frames", str(tmp_path),
                     "--init-box", "0,0,32,32", "--out", str(tmp_path / "b.csv")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize(
        "lines, text",
        [
            (["sub_patch_stride=\u0661\u0666"], "metadata sub_patch_stride='\u0661\u0666' is not an integer"),
            (["sub_patch_stride=016"], "metadata sub_patch_stride='016' is not an integer"),
            (["k=v", "sub_patch_stride=16"], "metadata does not start with sub_patch_stride"),
            (["sub_patch_stride=16", "sub_patch_stride=16"],
             "metadata key 'sub_patch_stride' is reserved"),
            ([], "metadata does not start with sub_patch_stride"),
        ],
        ids=["arabic-indic-digits", "leading-zero", "second-line", "duplicated", "missing"],
    )
    def test_stride_line_only_as_written(self, tmp_path, lines, text):
        # each file reads as stride 16 if a non-ASCII, zero-padded, late, repeated or
        # missing stride line is accepted, and then re-saves to other bytes
        path = tmp_path / "m.hftm"
        path.write_bytes(in_section(b"META", lambda p: meta(*lines))(valid_model_bytes(8, 4)))
        with pytest.raises(ModelFormatError, match=f"^{re.escape(f'{path}: {text}')}$"):
            load_model(path)


class TestModelFileFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_corrupt_bytes_load_or_raise_model_format_error(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "fuzz.hftm"
        path.write_bytes(data.draw(corruptions(valid_model_bytes())))
        try:
            model = load_model(path)
        except ModelFormatError:
            return
        # a file loads only in the form save_model writes
        resaved = tmp_path_factory.getbasetemp() / "fuzz-resaved.hftm"
        save_model(model, resaved)
        assert resaved.read_bytes() == path.read_bytes()


class TestModelInvariants:
    def test_layer1_input_dim_checked(self):
        model = build_model(f1=8, f2=4)
        bad = np.ones((8, 100))
        with pytest.raises(ValueError, match="layer 1 input dim"):
            HierarchicalModel(
                layer1=LayerEncoder(bad),
                whitening=model.whitening,
                layer2=model.layer2,
            )

    def test_whitening_dim_consistency_checked(self):
        model = build_model(f1=8, f2=4)
        with pytest.raises(ValueError, match="whitening input dim"):
            HierarchicalModel(
                layer1=model.layer1,
                whitening=model.whitening,
                layer2=model.layer2,
                sub_patch_stride=8,  # 3x3 grid no longer matches the fit
            )

    def test_hier_feature_length_checked(self):
        with pytest.raises(ValueError, match="combined"):
            HierFeature(np.ones(4), np.ones(2), np.ones(7))

    def test_orthonormal_rows_block_structure(self):
        rng = np.random.default_rng(6)
        w = _random_orthonormal_rows(6, 4, rng)
        np.testing.assert_allclose(w[:4] @ w[:4].T, np.eye(4), atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(w, axis=1), np.ones(6), atol=1e-12)
