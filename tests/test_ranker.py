"""Pair scorer: attention forward pass, reshaped loss, gradients, training."""

import base64
import json
import math
import re
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focusrank.config import with_grid
from focusrank.errors import (
    CheckpointFormatError,
    ConfigInvalidError,
    TrainingDivergedError,
)
from focusrank.ranker import (
    Checkpoint,
    LossConfig,
    PairTable,
    RankerParams,
    TrainConfig,
    batch_loss,
    bce_with_logits,
    finite_difference_grad,
    forward,
    grad,
    gradient_check,
    grid_search,
    init_params,
    load_checkpoint,
    pair_logits,
    per_sample_loss,
    predict_proba,
    save_checkpoint,
    sigmoid,
    train,
)
from focusrank.ranker import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    _Adam,
    _GradWorkspace,
)


def params_from_lists(wq, wk, wv, w_out, b_out) -> RankerParams:
    return RankerParams(
        wq=np.array(wq, dtype=np.float64),
        wk=np.array(wk, dtype=np.float64),
        wv=np.array(wv, dtype=np.float64),
        w_out=np.array(w_out, dtype=np.float64),
        b_out=float(b_out),
    )


def oracle_logit(params: RankerParams, anchor, cand) -> float:
    """Scored pair re-derived with plain Python loops, no numpy."""
    wq, wk, wv = params.wq.tolist(), params.wk.tolist(), params.wv.tolist()
    w_out = params.w_out.tolist()
    d, h = params.d, params.h
    x = [list(map(float, anchor)), list(map(float, cand))]

    def project(w):
        return [[sum(x[i][t] * w[t][j] for t in range(d)) for j in range(h)] for i in range(2)]

    q, k, v = project(wq), project(wk), project(wv)
    scores = [
        [sum(q[i][t] * k[j][t] for t in range(h)) / math.sqrt(h) for j in range(2)]
        for i in range(2)
    ]
    attn = []
    for row in scores:
        top = max(row)
        expo = [math.exp(s - top) for s in row]
        total = sum(expo)
        attn.append([e / total for e in expo])
    mixed = [
        [sum(attn[i][t] * v[t][j] for t in range(2)) for j in range(h)] for i in range(2)
    ]
    pooled = [(mixed[0][j] + mixed[1][j]) / 2.0 for j in range(h)]
    return sum(w_out[j] * pooled[j] for j in range(h)) + params.b_out


def attention_reference(params: RankerParams, anchors, cands) -> SimpleNamespace:
    """The forward pass written with explicit attention tensors: the
    (n, 2, d) token stack, (n, 2, 2) softmax rows, mean pooling and the
    head. Holds every intermediate `einsum_grad` backpropagates through."""
    x = np.stack([anchors, cands], axis=1)
    q, k, v = x @ params.wq, x @ params.wk, x @ params.wv
    scores = q @ k.transpose(0, 2, 1) / math.sqrt(params.h)
    expo = np.exp(scores - scores.max(axis=2, keepdims=True))
    attn = expo / expo.sum(axis=2, keepdims=True)
    pooled = (attn @ v).mean(axis=1)
    z = pooled @ params.w_out + params.b_out
    return SimpleNamespace(x=x, q=q, k=k, v=v, attn=attn, pooled=pooled, z=z)


def random_params(rng, d: int, h: int) -> RankerParams:
    return RankerParams(
        wq=rng.normal(size=(d, h)), wk=rng.normal(size=(d, h)), wv=rng.normal(size=(d, h)),
        w_out=rng.normal(size=h), b_out=float(rng.normal()),
    )


class TestParams:
    def test_blocks_alias_theta(self):
        params = random_params(np.random.default_rng(20), d=4, h=3)
        theta = params.theta
        assert theta.shape == (3 * 4 * 3 + 3 + 1,)
        assert all(np.shares_memory(block, theta) for block in params.arrays())
        params.wq[1, 2] = 7.0
        params.wv[0, 0] = -3.0
        assert theta[1 * 9 + 2] == 7.0 and theta[0 * 9 + 6] == -3.0
        params.w_out = np.arange(3.0)
        params.b_out = 0.5
        assert theta[-4:].tolist() == [0.0, 1.0, 2.0, 0.5]
        theta[9 + 3] = 11.0  # row 1, first column of wk
        assert params.wk[1, 0] == 11.0

    def test_constructor_copies_blocks_into_theta(self):
        rng = np.random.default_rng(21)
        wq, wk, wv = rng.normal(size=(3, 2)), rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
        params = RankerParams(wq=wq, wk=wk, wv=wv, w_out=np.ones(2), b_out=-1.0)
        np.testing.assert_array_equal(params.w_qkv, np.hstack([wq, wk, wv]))
        assert params.b_out == -1.0
        params.wq[0, 0] += 1.0
        assert wq[0, 0] != params.wq[0, 0]

    def test_copy_is_independent(self):
        params = random_params(np.random.default_rng(22), d=3, h=2)
        dup = params.copy()
        dup.wq[0, 0] += 1.0
        dup.b_out += 1.0
        assert params.wq[0, 0] != dup.wq[0, 0] and params.b_out != dup.b_out

    def test_wrong_block_shape_rejected(self):
        params = random_params(np.random.default_rng(23), d=3, h=2)
        with pytest.raises(ValueError, match="w_out needs shape"):
            params.w_out = np.zeros(3)
        with pytest.raises(ValueError, match="needs shape"):
            RankerParams(wq=np.zeros((3, 2)), wk=np.zeros((3, 2)), wv=np.zeros((2, 2)),
                         w_out=np.zeros(2), b_out=0.0)


FIXED = params_from_lists(
    wq=[[0.1, -0.2], [0.0, 0.3], [0.2, 0.1]],
    wk=[[0.2, 0.1], [-0.1, 0.0], [0.3, -0.2]],
    wv=[[0.5, 0.0], [0.0, 0.5], [0.1, 0.2]],
    w_out=[1.0, -0.5],
    b_out=0.25,
)


class TestForward:
    def test_matches_loop_oracle_on_fixed_pair(self):
        anchor = [1.0, 0.0, 2.0]
        cand = [0.0, 1.0, 0.5]
        expected = oracle_logit(FIXED, anchor, cand)
        assert forward(FIXED, np.array(anchor), np.array(cand)) == pytest.approx(
            expected, abs=1e-12
        )

    def test_matches_loop_oracle_on_random_pairs(self):
        """Unit-scale rows, then large-norm rows that saturate the softmax."""
        rng = np.random.default_rng(11)
        for row_scale in [1.0] * 10 + [10.0, 30.0, 100.0]:
            d, h = int(rng.integers(2, 6)), int(rng.integers(1, 4))
            params = RankerParams(
                wq=rng.normal(size=(d, h)),
                wk=rng.normal(size=(d, h)),
                wv=rng.normal(size=(d, h)),
                w_out=rng.normal(size=h),
                b_out=float(rng.normal()),
            )
            anchor, cand = row_scale * rng.normal(size=d), row_scale * rng.normal(size=d)
            assert forward(params, anchor, cand) == pytest.approx(
                oracle_logit(params, anchor, cand), rel=1e-12, abs=1e-12
            )

    def test_fresh_params_emit_bias_exactly(self):
        """Zeroed head means the untrained logit is b_out for any input."""
        params = init_params(d=8, h=4, init_scale=1.0, seed=0)
        rng = np.random.default_rng(1)
        assert forward(params, rng.normal(size=8), rng.normal(size=8)) == 0.0
        assert predict_proba(params, rng.normal(size=8), rng.normal(size=8)) == 0.5

    def test_batched_equals_pairwise(self):
        rng = np.random.default_rng(2)
        anchors, cands = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
        batched = forward(FIXED, anchors, cands)
        singles = [forward(FIXED, anchors[i], cands[i]) for i in range(5)]
        np.testing.assert_allclose(batched, singles, atol=1e-14)

    def test_identical_rows_score_their_value_head(self):
        """A token attends evenly to an identical token, so the logit is
        b + (x·Wv)·w_out, whatever the attention scores."""
        x = np.random.default_rng(3).normal(size=(20, 3)) * np.logspace(-1, 2, 20)[:, None]
        want = FIXED.b_out + (x @ FIXED.wv) @ FIXED.w_out
        np.testing.assert_allclose(forward(FIXED, x, x), want, rtol=0, atol=1e-12)
        rows = np.arange(20)
        np.testing.assert_allclose(pair_logits(FIXED, x, rows, rows), want, rtol=0, atol=1e-12)

    def test_probability_for_known_logit(self):
        params = params_from_lists(
            wq=np.zeros((3, 2)), wk=np.zeros((3, 2)), wv=np.zeros((3, 2)),
            w_out=np.zeros(2), b_out=math.log(3.0),
        )
        p = predict_proba(params, np.ones(3), np.ones(3))
        assert p == pytest.approx(0.75, abs=1e-12)

    def test_dimension_mismatch_raises(self):
        """`forward` projects the two sides apart, so it checks them first."""
        cases = [
            (np.ones(4), np.ones(4)),  # width other than d
            (np.ones(3), np.ones(2)),
            (np.ones((2, 3)), np.ones((3, 3))),  # more candidates than anchors
            (np.ones((2, 4)), np.ones((2, 4))),
            (np.ones((2, 2, 3)), np.ones((2, 2, 3))),  # not a matrix
        ]
        for anchors, cands in cases:
            with pytest.raises(ValueError, match=r"expected two \(n, 3\) blocks"):
                forward(FIXED, anchors, cands)
            with pytest.raises(ValueError, match=r"expected two \(n, 3\) blocks"):
                predict_proba(FIXED, anchors, cands)


def term_scale(params: RankerParams, anchors, cands) -> np.ndarray:
    """Per pair, |b| plus a bound on the magnitude of the value terms a
    logit sums: the yardstick for rounding differences between two ways of
    computing the same logit."""
    reach = (np.abs(anchors) + np.abs(cands)) @ np.abs(params.wv) @ np.abs(params.w_out)
    return abs(params.b_out) + reach


@st.composite
def scored_pairs(draw):
    """Random weights scaled up to 2, u label rows (u may be 1) of norms up
    to a saturating 50 and n pairs drawn from them with repeats."""
    u, n = draw(st.integers(1, 12)), draw(st.integers(1, 40))
    d, h = draw(st.integers(1, 10)), draw(st.integers(1, 8))
    weight_scale = draw(st.floats(0.01, 2.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = RankerParams(
        wq=weight_scale * rng.normal(size=(d, h)),
        wk=weight_scale * rng.normal(size=(d, h)),
        wv=weight_scale * rng.normal(size=(d, h)),
        w_out=weight_scale * rng.normal(size=h),
        b_out=float(weight_scale * rng.normal()),
    )
    vectors = draw(st.sampled_from([1.0, 1.0, 5.0, 50.0])) * rng.normal(size=(u, d))
    return params, vectors, rng.integers(0, u, size=n), rng.integers(0, u, size=n)


class TestPairLogits:
    @settings(max_examples=200, deadline=None)
    @given(case=scored_pairs())
    def test_equals_forward_on_gathered_rows(self, case):
        """Both equal the explicit-attention reference on the gathered rows."""
        params, vectors, a_rows, c_rows = case
        anchors, cands = vectors[a_rows], vectors[c_rows]
        want = attention_reference(params, anchors, cands).z
        bound = 1e-12 * term_scale(params, anchors, cands)
        assert np.all(np.abs(pair_logits(params, vectors, a_rows, c_rows) - want) <= bound)
        assert np.all(np.abs(forward(params, anchors, cands) - want) <= bound)

    @settings(max_examples=100, deadline=None)
    @given(case=scored_pairs())
    def test_neural_scores_equal_predict_proba_on_a_tiled_anchor(self, case):
        """The anchor is row 0 of the embedded labels and every candidate
        is scored against it; candidates may share a label. Both equal the
        explicit-attention reference's probabilities."""
        from focusrank.evaluation import neural_scores

        params, vectors, _, c_rows = case
        labels = {"anchor": "0", **{f"n{i}": str(row) for i, row in enumerate(c_rows)}}
        graph = SimpleNamespace(label=labels.__getitem__)
        provider = SimpleNamespace(embed=lambda texts: vectors[[int(t) for t in texts]])
        candidates = [f"n{i}" for i in range(len(c_rows))]
        got = neural_scores(params, provider, graph, "anchor", candidates)
        anchors, cands = np.tile(vectors[0], (len(c_rows), 1)), vectors[c_rows]
        want = np.exp(-np.logaddexp(0.0, -attention_reference(params, anchors, cands).z))
        bound = 1e-12 * (1.0 + term_scale(params, anchors, cands)) * want
        assert np.all(np.abs(got - want) <= bound)
        assert np.all(np.abs(predict_proba(params, anchors, cands) - want) <= bound)

    def test_repeated_rows_score_alike(self):
        """Pairs naming the same rows get the same logit, bit for bit."""
        rng = np.random.default_rng(4)
        params, vectors = random_params(rng, d=3, h=2), rng.normal(size=(3, 3))
        logits = pair_logits(params, vectors, np.array([0, 2, 0, 1]), np.array([2, 0, 2, 1]))
        assert logits[0] == logits[2]
        assert logits[3] == pytest.approx(forward(params, vectors[1], vectors[1]), rel=1e-12)

    def test_fresh_params_emit_bias_exactly(self):
        params = init_params(d=4, h=3, init_scale=1.0, seed=0)
        vectors = np.random.default_rng(5).normal(size=(6, 4))
        logits = pair_logits(params, vectors, np.arange(6), np.arange(6)[::-1])
        assert np.all(logits == params.b_out)

    @pytest.mark.parametrize("shape", [(3,), (2, 4), (2, 3, 1)])
    def test_vectors_of_the_wrong_shape_raise(self, shape):
        with pytest.raises(ValueError, match=r"matrix of vectors, got shape"):
            pair_logits(FIXED, np.ones(shape), np.array([0]), np.array([0]))

    def test_no_pairs_give_no_logits(self):
        assert pair_logits(FIXED, np.ones((1, 3)), np.array([], np.intp), np.array([], np.intp)).shape == (0,)


class TestPairTable:
    def test_per_pair_arrays_become_a_table_over_their_rows(self):
        anchors, cands, labels = toy_task(n=5)
        table = PairTable.of((anchors, cands, labels))
        assert np.array_equal(table.vectors, np.concatenate([anchors, cands]))
        assert np.array_equal(table.anchors, np.arange(5))
        assert np.array_equal(table.cands, np.arange(5, 10))
        assert table.anchors.dtype == table.cands.dtype == np.intp
        got = table.gather([3, 1])
        for part, want in zip(got, (anchors[[3, 1]], cands[[3, 1]], labels[[3, 1]])):
            assert np.array_equal(part, want)

    def test_a_table_is_its_own_table(self):
        table = PairTable(np.eye(2), [0, 1], [1, 1], [1.0, 0.0])
        assert PairTable.of(table) is table
        assert len(table) == 2

    def test_unsigned_rows_become_intp(self):
        table = PairTable(np.eye(3), np.array([2], np.uint8), np.array([0], np.int32), [1.0])
        assert table.anchors.dtype == table.cands.dtype == np.intp

    @pytest.mark.parametrize(
        "anchors, cands, labels, message",
        [
            ([0, 1], [1], [1.0, 0.0], "candidate rows have shape"),  # candidate rows short of the labels
            ([0, 1], [1, 0], [1.0], "anchor rows have shape"),  # more rows than labels
            ([0, 3], [1, 0], [1.0, 0.0], r"anchor rows must lie in \[0, 3\)"),  # row past the end
            ([0, -1], [1, 0], [1.0, 0.0], r"anchor rows must lie in \[0, 3\)"),  # negative row
            ([0.0, 1.0], [1, 0], [1.0, 0.0], "anchor rows must be integers"),  # float rows
            ([True, False], [1, 0], [1.0, 0.0], "anchor rows must be integers"),  # a boolean mask is not rows
            ([[0, 1]], [[1, 0]], [[1.0, 0.0]], "pair labels must be 1-D"),  # 2-D rows and labels
        ],
    )
    def test_rows_that_do_not_fit_raise(self, anchors, cands, labels, message):
        with pytest.raises(ValueError, match=message):
            PairTable(np.eye(3), anchors, cands, labels)

    @pytest.mark.parametrize("vectors", [np.ones(3), np.ones((2, 3, 1)), np.float64(1.0)])
    def test_vectors_that_are_not_a_matrix_raise(self, vectors):
        with pytest.raises(ValueError, match=r"pair vectors must be a \(u, d\) matrix"):
            PairTable(vectors, [0], [0], [1.0])

    def test_mismatched_per_pair_blocks_raise(self):
        with pytest.raises(ValueError, match=r"expected two \(n, d\) blocks"):
            PairTable.of((np.ones((2, 3)), np.ones((2, 4)), np.ones(2)))
        with pytest.raises(ValueError, match=r"expected two \(n, d\) blocks"):
            PairTable.of((np.ones(3), np.ones(3), np.ones(1)))
        with pytest.raises(ValueError, match="anchor rows have shape"):
            PairTable.of((np.ones((2, 3)), np.ones((2, 3)), np.ones(3)))

    def test_validation_width_other_than_the_training_width_raises(self):
        anchors, cands, labels = toy_task()
        narrow = (anchors[:, :4], cands[:, :4], labels)
        with pytest.raises(ValueError, match="validation vectors have width 4, training vectors"):
            train((anchors, cands, labels), narrow, toy_config(epochs=1))

    def test_empty_table_cannot_be_trained_on(self):
        empty = PairTable(np.eye(3), [], [], [])
        with pytest.raises(ValueError, match="train and validation sets must be non-empty"):
            train(PairTable.of(toy_task()), empty, toy_config(epochs=1))


def two_branch_sigmoid(z: np.ndarray) -> np.ndarray:
    """The reference: 1 / (1 + exp(-z)) where z >= 0, exp(z) / (1 + exp(z))
    elsewhere, NaN included."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    out[~pos] = np.exp(z[~pos]) / (1.0 + np.exp(z[~pos]))
    return out


def test_sigmoid_matches_the_two_branch_form_bit_for_bit():
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 800.0, -800.0, 5e-324, -5e-324]
    z = np.concatenate([special, np.random.default_rng(0).normal(0.0, 20.0, 1000)])
    assert sigmoid(z).view(np.uint64).tolist() == two_branch_sigmoid(z).view(np.uint64).tolist()
    assert sigmoid(z.reshape(2, -1)).shape == (2, len(z) // 2)
    for value in (-3.5, 0.0, 2.0, np.float64(-700.0)):
        got = sigmoid(value)
        assert type(got) is float and got == two_branch_sigmoid(np.array([value]))[0]


def oracle_loss(z: float, y: int, alpha: float, beta: float, lam: float) -> float:
    """The four-factor loss written out term by term."""
    p = 1.0 / (1.0 + math.exp(-z)) if z >= 0 else math.exp(z) / (1.0 + math.exp(z))
    l = max(z, 0.0) - z * y + math.log1p(math.exp(-abs(z)))
    t = p * y + (1.0 - p) * (1.0 - y)
    w = 1.0 - t**beta
    a = alpha * y + (1.0 - alpha) * (1.0 - y)
    m = (1.0 - y) * p * lam + 1.0
    return a * w * l * m


class TestLoss:
    def test_positive_at_decision_boundary(self):
        cfg = LossConfig(alpha=0.5, beta=1.0, lambda_penalty=0.0)
        # a=1/2, w=1/2, l=ln 2, m=1
        assert per_sample_loss(0.0, 1, cfg) == pytest.approx(0.25 * math.log(2.0), abs=1e-15)

    def test_negative_at_decision_boundary(self):
        cfg = LossConfig(alpha=0.25, beta=2.0, lambda_penalty=4.0)
        # a=3/4, w=3/4, l=ln 2, m=3
        expected = 0.75 * 0.75 * math.log(2.0) * 3.0
        assert per_sample_loss(0.0, 0, cfg) == pytest.approx(expected, rel=1e-12)

    def test_zero_beta_zeroes_the_loss(self):
        cfg = LossConfig(alpha=0.5, beta=0.0, lambda_penalty=4.0)
        for z in (-3.0, 0.0, 2.5):
            assert per_sample_loss(z, 0, cfg) == 0.0
            assert per_sample_loss(z, 1, cfg) == 0.0

    def test_positives_ignore_the_penalty_factor(self):
        for lam in (0.0, 4.0, 9.0):
            cfg = LossConfig(alpha=0.5, beta=2.0, lambda_penalty=lam)
            assert per_sample_loss(1.3, 1, cfg) == per_sample_loss(
                1.3, 1, LossConfig(alpha=0.5, beta=2.0, lambda_penalty=0.0)
            )

    def test_penalty_strictly_increases_confident_negative_loss(self):
        losses = [
            per_sample_loss(2.0, 0, LossConfig(alpha=0.5, beta=2.0, lambda_penalty=lam))
            for lam in (0.0, 1.0, 4.0, 10.0)
        ]
        assert all(a < b for a, b in zip(losses, losses[1:]))

    def test_matches_term_by_term_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            z = float(rng.uniform(-20.0, 20.0))
            y = int(rng.integers(0, 2))
            alpha = float(rng.uniform(0.05, 0.95))
            beta = float(rng.uniform(0.0, 5.0))
            lam = float(rng.uniform(0.0, 10.0))
            cfg = LossConfig(alpha=alpha, beta=beta, lambda_penalty=lam)
            assert per_sample_loss(z, y, cfg) == pytest.approx(
                oracle_loss(z, y, alpha, beta, lam), rel=1e-12, abs=1e-15
            )

    def test_never_negative(self):
        rng = np.random.default_rng(8)
        z = rng.uniform(-30, 30, size=500)
        y = rng.integers(0, 2, size=500).astype(float)
        cfg = LossConfig(alpha=0.3, beta=2.5, lambda_penalty=6.0)
        assert np.all(per_sample_loss(z, y, cfg) >= 0.0)

    def test_bce_equivalence_in_moderate_range(self):
        """The rearranged form equals -[y ln p + (1-y) ln(1-p)]; the reference
        uses 1-p = sigmoid(-z) so it stays accurate out to |z| = 20."""

        def sig(t: float) -> float:
            return 1.0 / (1.0 + math.exp(-t)) if t >= 0 else math.exp(t) / (1.0 + math.exp(t))

        rng = np.random.default_rng(9)
        for _ in range(200):
            z = float(rng.uniform(-20.0, 20.0))
            y = int(rng.integers(0, 2))
            reference = -(y * math.log(sig(z)) + (1 - y) * math.log(sig(-z)))
            assert float(bce_with_logits(z, y)) == pytest.approx(reference, abs=1e-9)

    def test_finite_at_extreme_logits(self):
        cfg = LossConfig()
        assert per_sample_loss(500.0, 0, cfg) == pytest.approx(1250.0)
        assert per_sample_loss(-500.0, 1, cfg) == pytest.approx(250.0)
        assert math.isfinite(per_sample_loss(500.0, 1, cfg))
        assert math.isfinite(per_sample_loss(-500.0, 0, cfg))

    def test_batch_loss_is_plain_mean(self):
        cfg = LossConfig()
        z = np.array([-1.0, 0.5, 2.0])
        y = np.array([0.0, 1.0, 0.0])
        assert batch_loss(z, y, cfg) == pytest.approx(
            float(np.mean(per_sample_loss(z, y, cfg)))
        )

    def test_config_validation(self):
        with pytest.raises(ConfigInvalidError):
            LossConfig(alpha=0.0)
        with pytest.raises(ConfigInvalidError):
            LossConfig(beta=-1.0)
        with pytest.raises(ConfigInvalidError):
            LossConfig(lambda_penalty=-0.5)


def max_rel_error(analytic, numeric, abs_tol=1e-7):
    worst = 0.0
    for a, n in zip(analytic.arrays(), numeric.arrays()):
        diff = np.abs(a - n)
        scale = np.maximum(np.abs(a), np.abs(n))
        mask = diff > abs_tol
        if np.any(mask):
            worst = max(worst, float((diff[mask] / scale[mask]).max()))
    return worst


def einsum_grad(params, anchors, cands, labels, cfg):
    """The gradient as the per-array formulation writes it: backprop
    through `attention_reference`'s softmax rows, three einsum contractions
    for the weights."""
    from focusrank.ranker import loss_grad_z

    ref = attention_reference(params, anchors, cands)
    x, q, k, v, attn, pooled, z = ref.x, ref.q, ref.k, ref.v, ref.attn, ref.pooled, ref.z
    gz = loss_grad_z(z, labels, cfg) / z.shape[0]
    dout = np.repeat((gz[:, None] * params.w_out[None, :])[:, None, :], 2, axis=1) * 0.5
    dattn = dout @ v.transpose(0, 2, 1)
    dscores = attn * (dattn - (dattn * attn).sum(axis=2, keepdims=True))
    dq = dscores @ k / math.sqrt(params.h)
    dk = dscores.transpose(0, 2, 1) @ q / math.sqrt(params.h)
    dv = attn.transpose(0, 2, 1) @ dout
    return [
        np.einsum("nij,nik->jk", x, dq),
        np.einsum("nij,nik->jk", x, dk),
        np.einsum("nij,nik->jk", x, dv),
        pooled.T @ gz,
        np.asarray([gz.sum()]),
    ]


class TestGradient:
    def test_matches_per_array_einsum_formula(self):
        """Unit-scale rows, then large-norm rows that saturate the softmax."""
        rng = np.random.default_rng(24)
        for row_scale in [1.0] * 10 + [3.0, 10.0, 30.0, 100.0]:
            d, h, n = int(rng.integers(2, 40)), int(rng.integers(1, 20)), int(rng.integers(1, 70))
            params = random_params(rng, d, h)
            anchors = row_scale * rng.normal(size=(n, d))
            cands = row_scale * rng.normal(size=(n, d))
            labels = rng.integers(0, 2, size=n).astype(float)
            _, grads = grad(params, anchors, cands, labels, LossConfig())
            expected = einsum_grad(params, anchors, cands, labels, LossConfig())
            for got, want in zip(grads.arrays(), expected):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


    def test_bias_gradient_at_zero_head(self):
        """With a zeroed head every logit is 0, so the bias gradient is the
        mean of the per-sample loss slope at z = 0."""
        cfg = LossConfig()
        params = init_params(d=5, h=3, init_scale=1.0, seed=4)
        rng = np.random.default_rng(5)
        anchors, cands = rng.normal(size=(6, 5)), rng.normal(size=(6, 5))
        labels = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 1.0])
        from focusrank.ranker import loss_grad_z

        _, grads = grad(params, anchors, cands, labels, cfg)
        expected = float(np.mean(loss_grad_z(np.zeros(6), labels, cfg)))
        assert grads.b_out == pytest.approx(expected, rel=1e-12)

    def test_duplicating_the_batch_changes_nothing(self):
        cfg = LossConfig()
        rng = np.random.default_rng(6)
        params = RankerParams(
            wq=rng.normal(size=(4, 3)), wk=rng.normal(size=(4, 3)),
            wv=rng.normal(size=(4, 3)), w_out=rng.normal(size=3), b_out=0.1,
        )
        anchors, cands = rng.normal(size=(5, 4)), rng.normal(size=(5, 4))
        labels = rng.integers(0, 2, size=5).astype(float)
        loss1, g1 = grad(params, anchors, cands, labels, cfg)
        loss2, g2 = grad(
            params,
            np.vstack([anchors, anchors]),
            np.vstack([cands, cands]),
            np.concatenate([labels, labels]),
            cfg,
        )
        assert loss1 == pytest.approx(loss2, rel=1e-12)
        for a, b in zip(g1.arrays(), g2.arrays()):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15)

    def test_matches_central_differences(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            d, h = int(rng.integers(2, 7)), int(rng.integers(1, 4))
            n = int(rng.integers(1, 9))
            params = RankerParams(
                wq=rng.normal(scale=0.5, size=(d, h)),
                wk=rng.normal(scale=0.5, size=(d, h)),
                wv=rng.normal(scale=0.5, size=(d, h)),
                w_out=rng.normal(scale=0.5, size=h),
                b_out=float(rng.normal(scale=0.5)),
            )
            cfg = LossConfig(
                alpha=float(rng.uniform(0.2, 0.8)),
                beta=float(rng.uniform(0.5, 3.0)),
                lambda_penalty=float(rng.uniform(0.0, 6.0)),
            )
            anchors, cands = rng.normal(size=(n, d)), rng.normal(size=(n, d))
            labels = rng.integers(0, 2, size=n).astype(float)
            _, analytic = grad(params, anchors, cands, labels, cfg)
            numeric = finite_difference_grad(params, anchors, cands, labels, cfg)
            assert max_rel_error(analytic, numeric) <= 1e-4

    def test_gradient_check_runner_all_pass(self):
        results = gradient_check(trials=6, seed=100)
        assert len(results) == 6
        assert all(row["passed"] for row in results)
        assert all(row["max_rel_error"] <= 1e-4 for row in results)

    def test_gradient_check_reports_the_error_below_the_absolute_tolerance(self):
        """Every entry's difference is under abs_tol here, yet the figure is
        taken relative to max(|g|, abs_tol / rel_tol) rather than set to 0."""
        results = gradient_check(trials=20, seed=0)
        assert all(row["passed"] for row in results)
        assert max(row["max_rel_error"] for row in results) > 0.0

    def test_every_gradient_check_trial_checks_a_nonzero_gradient(self):
        """No trial may compare zero with zero: at beta = 0 the loss factor
        1 - t**beta vanishes, and with it the loss and its gradient."""
        results = gradient_check(trials=20, seed=0)
        assert all(row["passed"] for row in results)
        assert [row["trial"] for row in results if not row["max_rel_error"] > 0.0] == []

    def test_reused_workspace_matches_no_workspace_bit_for_bit(self):
        """Batches of varying size through one workspace: each loss and
        gradient equals that of a call without one, so training with a
        workspace follows the same path."""
        rng = np.random.default_rng(31)
        params, cfg = random_params(rng, d=5, h=3), LossConfig()
        workspace = _GradWorkspace(8, 5, 3)
        for n in (8, 3, 8, 1, 5):
            anchors, cands = rng.normal(size=(n, 5)), rng.normal(size=(n, 5))
            labels = rng.integers(0, 2, size=n).astype(float)
            loss, fresh = grad(params, anchors, cands, labels, cfg)
            reused_loss, reused = grad(params, anchors, cands, labels, cfg, workspace=workspace)
            assert reused_loss == loss
            assert reused.theta.tobytes() == fresh.theta.tobytes()
            assert reused is workspace.grads

    def test_empty_batch_rejected(self):
        params = init_params(d=3, h=2, init_scale=1.0, seed=0)
        with pytest.raises(ValueError, match="gradient of an empty batch"):
            grad(params, np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0), LossConfig())

    @pytest.mark.parametrize("labels", [[1.0], 1.0, [1.0, 0.0], np.ones(6), np.ones((5, 1))])
    def test_labels_other_than_one_per_pair_rejected(self, labels):
        """A single label is not broadcast over the batch."""
        with pytest.raises(ValueError, match="one label per pair"):
            grad(FIXED, np.ones((5, 3)), np.ones((5, 3)), labels, LossConfig())


def toy_task(n=48, d=6, seed=3):
    """Linearly separated pairs: positives put mass on axis 1, negatives
    on axis 2, anchors always on axis 0."""
    rng = np.random.default_rng(seed)
    anchors = rng.normal(0.0, 0.05, size=(n, d))
    cands = rng.normal(0.0, 0.05, size=(n, d))
    labels = np.array([i % 2 for i in range(n)], dtype=float)
    anchors[:, 0] += 1.0
    cands[labels == 1.0, 1] += 1.0
    cands[labels == 0.0, 2] += 1.0
    return anchors, cands, labels


def toy_config(**overrides) -> TrainConfig:
    base = dict(
        learning_rate=0.05,
        batch_size=16,
        epochs=200,
        seed=7,
        early_stop_patience=25,
        h=8,
        init_scale=1.0,
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestTraining:
    def test_separable_task_reaches_full_accuracy(self):
        anchors, cands, labels = toy_task()
        ckpt = train((anchors, cands, labels), (anchors, cands, labels), toy_config())
        assert len(ckpt.history) <= 200
        proba = predict_proba(ckpt.params, anchors, cands)
        assert np.array_equal((np.asarray(proba) > 0.5).astype(float), labels)

    def test_bit_identical_given_seed(self):
        data = toy_task()
        cfg = toy_config(epochs=8, early_stop_patience=0)
        a = train(data, data, cfg)
        b = train(data, data, cfg)
        for x, y in zip(a.params.arrays(), b.params.arrays()):
            assert x.tobytes() == y.tobytes()
        assert a.history == b.history

    def test_zero_epochs_is_a_no_op(self):
        anchors, cands, labels = toy_task()
        cfg = toy_config(epochs=0)
        ckpt = train((anchors, cands, labels), (anchors, cands, labels), cfg)
        fresh = init_params(anchors.shape[1], cfg.h, cfg.init_scale, cfg.seed)
        assert ckpt.history == []
        for got, init in zip(ckpt.params.arrays(), fresh.arrays()):
            assert got.tobytes() == init.tobytes()

    def test_early_stopping_cuts_hopeless_validation(self):
        """Validation labels flipped against training: val loss climbs, so a
        small patience must stop well before the epoch budget."""
        anchors, cands, labels = toy_task()
        flipped = (anchors, cands, 1.0 - labels)
        cfg = toy_config(epochs=120, early_stop_patience=3)
        ckpt = train((anchors, cands, labels), flipped, cfg)
        assert len(ckpt.history) < 120

    def test_zero_patience_disables_early_stopping(self):
        anchors, cands, labels = toy_task()
        flipped = (anchors, cands, 1.0 - labels)
        cfg = toy_config(epochs=12, early_stop_patience=0)
        ckpt = train((anchors, cands, labels), flipped, cfg)
        assert len(ckpt.history) == 12

    def test_returns_best_validation_epoch(self):
        data = toy_task()
        ckpt = train(data, data, toy_config(epochs=30, early_stop_patience=0))
        best = min(row["val_loss"] for row in ckpt.history)
        anchors, cands, labels = data
        reloss = batch_loss(forward(ckpt.params, anchors, cands), labels, toy_config().loss)
        assert reloss == pytest.approx(best, rel=1e-9)

    @pytest.mark.parametrize("rows", [1, 7, 48, 1000])
    def test_validation_chunks_leave_the_loss_unchanged(self, monkeypatch, rows):
        """Logits computed chunk by chunk, then one batch_loss: the history
        matches the single forward pass over the whole validation set."""
        from focusrank import ranker

        data = toy_task()
        cfg = toy_config(epochs=5, early_stop_patience=0)
        monkeypatch.setattr(ranker, "VAL_CHUNK_ROWS", 10**9)
        whole = train(data, data, cfg)
        monkeypatch.setattr(ranker, "VAL_CHUNK_ROWS", rows)
        chunked = train(data, data, cfg)
        for a, b in zip(whole.history, chunked.history):
            assert a["train_loss"] == b["train_loss"]
            assert b["val_loss"] == pytest.approx(a["val_loss"], rel=0, abs=1e-12)
        anchors, cands, labels = data
        best = batch_loss(forward(chunked.params, anchors, cands), labels, cfg.loss)
        assert best == pytest.approx(
            min(row["val_loss"] for row in chunked.history), rel=0, abs=1e-12
        )

    def test_table_trains_like_its_expanded_pairs(self):
        """A table whose labels repeat trains on the very batches of its
        per-pair expansion: the same train losses and weights."""
        rng = np.random.default_rng(12)
        vectors = toy_task(n=10)[0]
        table = PairTable(vectors, rng.integers(0, 10, 60), rng.integers(0, 10, 60),
                          rng.integers(0, 2, 60).astype(float))
        expanded = table.gather(slice(None))
        cfg = toy_config(epochs=6, early_stop_patience=0)
        a, b = train(table, table, cfg), train(expanded, expanded, cfg)
        assert [r["train_loss"] for r in a.history] == [r["train_loss"] for r in b.history]
        for x, y in zip(a.history, b.history):
            assert x["val_loss"] == pytest.approx(y["val_loss"], rel=1e-12)
        assert a.params.theta.tobytes() == b.params.theta.tobytes()

    def test_empty_sets_rejected(self):
        empty = (np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0))
        with pytest.raises(ValueError, match="train and validation sets must be non-empty"):
            train(empty, empty, toy_config())

    def test_nan_embeddings_raise_instead_of_returning_a_model(self):
        anchors, cands, labels = toy_task()
        anchors[5, 2] = np.nan
        with pytest.raises(TrainingDivergedError, match="epoch 0: batch loss is nan"):
            train((anchors, cands, labels), toy_task(), toy_config())

    def test_nan_validation_loss_raises(self):
        anchors, cands, labels = toy_task()
        bad_val = (anchors, np.full_like(cands, np.nan), labels)
        with pytest.raises(TrainingDivergedError, match="validation loss is nan"):
            train((anchors, cands, labels), bad_val, toy_config())


class TestAdam:
    def test_vector_step_equals_per_array_step_bit_for_bit(self):
        """The per-array update, written as the textbook form, applied to
        each block separately; the vector step over theta must give the
        same bits."""
        rng = np.random.default_rng(25)
        params = random_params(rng, d=7, h=5)
        blocks = [a.copy() for a in params.arrays()]
        m = [np.zeros_like(a) for a in blocks]
        v = [np.zeros_like(a) for a in blocks]
        adam = _Adam(params.theta.size, learning_rate=0.01)
        for t in range(1, 30):
            grads = RankerParams.from_theta(rng.normal(size=params.theta.size), 7, 5)
            adam.step(params.theta, grads.theta)
            for i, g in enumerate(grads.arrays()):
                m[i] = ADAM_BETA1 * m[i] + (1.0 - ADAM_BETA1) * g
                v[i] = ADAM_BETA2 * v[i] + (1.0 - ADAM_BETA2) * g * g
                m_hat = m[i] / (1.0 - ADAM_BETA1**t)
                v_hat = v[i] / (1.0 - ADAM_BETA2**t)
                blocks[i] -= 0.01 * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
            for got, want in zip(params.arrays(), blocks):
                assert got.tobytes() == want.tobytes()


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path):
        data = toy_task(n=16)
        cfg = toy_config(epochs=3, early_stop_patience=0)
        ckpt = train(data, data, cfg, provider_fingerprint="hashed:d=6")
        path = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        for a, b in zip(ckpt.params.arrays(), loaded.params.arrays()):
            assert a.tobytes() == b.tobytes()
        assert loaded.train_config == cfg
        assert loaded.provider_fingerprint == "hashed:d=6"
        assert loaded.history == ckpt.history

    def test_save_is_deterministic(self, tmp_path):
        data = toy_task(n=16)
        cfg = toy_config(epochs=2, early_stop_patience=0)
        ckpt = train(data, data, cfg)
        save_checkpoint(ckpt, tmp_path / "a.json")
        save_checkpoint(ckpt, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_non_json_file_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("definitely not json {")
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)

    def test_wrong_format_marker_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else", "version": 1}')
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)

    def test_unsupported_version_rejected(self, tmp_path):
        data = toy_task(n=16)
        ckpt = train(data, data, toy_config(epochs=1, early_stop_patience=0))
        path = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, path)
        import json as json_mod

        payload = json_mod.loads(path.read_text())
        payload["version"] = 99
        path.write_text(json_mod.dumps(payload))
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)

    def test_version_one_checkpoint_rejected(self, tmp_path):
        """Version 1 stored each block under "params"; it is not read."""
        path = tmp_path / "v1.json"
        d, h = 3, 2
        encoded = lambda n: base64.b64encode(np.zeros(n, dtype="<f8").tobytes()).decode()
        path.write_text(json.dumps({
            "format": "focusrank-checkpoint", "version": 1, "d": d, "h": h,
            "train_config": asdict(toy_config()), "provider_fingerprint": "", "history": [],
            "params": {"wq": encoded(d * h), "wk": encoded(d * h), "wv": encoded(d * h),
                       "w_out": encoded(h), "b_out": 0.0},
        }))
        with pytest.raises(CheckpointFormatError, match="version 1 unsupported"):
            load_checkpoint(path)

    def test_theta_is_the_only_array_stored(self, tmp_path):
        data = toy_task(n=16)
        ckpt = train(data, data, toy_config(epochs=1, early_stop_patience=0))
        save_checkpoint(ckpt, tmp_path / "ckpt.json")
        payload = json.loads((tmp_path / "ckpt.json").read_text())
        assert payload["version"] == 2
        raw = np.frombuffer(base64.b64decode(payload["theta"]), dtype="<f8")
        assert raw.tobytes() == ckpt.params.theta.tobytes()

    def test_truncated_weights_rejected(self, tmp_path):
        data = toy_task(n=16)
        ckpt = train(data, data, toy_config(epochs=1, early_stop_patience=0))
        path = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, path)
        import json as json_mod

        payload = json_mod.loads(path.read_text())
        payload["theta"] = payload["theta"][: len(payload["theta"]) // 2]
        path.write_text(json_mod.dumps(payload))
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)

    @staticmethod
    def rewritten(tmp_path, edit):
        """A saved checkpoint whose JSON payload `edit` changed in place."""
        data = toy_task(n=16)
        ckpt = train(data, data, toy_config(epochs=1, early_stop_patience=0))
        path = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, path)
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        return path

    @pytest.mark.parametrize("poison", [
        lambda raw: b"\xff" * len(raw),  # every value a NaN
        lambda raw: raw[:8] + np.float64(math.inf).tobytes() + raw[16:],
        lambda raw: raw[:-8] + np.float64(-math.inf).tobytes(),
    ])
    def test_non_finite_theta_rejected(self, tmp_path, poison):
        def edit(payload):
            raw = base64.b64decode(payload["theta"])
            payload["theta"] = base64.b64encode(poison(raw)).decode("ascii")

        with pytest.raises(CheckpointFormatError, match="non-finite"):
            load_checkpoint(self.rewritten(tmp_path, edit))

    @pytest.mark.parametrize("key", ["d", "h"])
    @pytest.mark.parametrize("value", [256.7, 6.0, True, "6", 0, -6, None, [6]])
    def test_non_integer_dimensions_rejected(self, tmp_path, key, value):
        path = self.rewritten(tmp_path, lambda payload: payload.__setitem__(key, value))
        with pytest.raises(CheckpointFormatError, match="positive integers"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda config: config.update(h=True), "train_config.h must be int, got true"),
        (lambda config: config.update(epochs=2.5), "train_config.epochs must be int, got 2.5"),
        (lambda config: config.update(batch_size=True), "train_config.batch_size must be int"),
        (lambda config: config.pop("epochs"), "train_config lacks key epochs"),
        (lambda config: config["loss"].pop("beta"), "train_config.loss lacks key beta"),
        (lambda config: config.update(bogus=1), "unknown config key: train_config.bogus"),
        (lambda config: config.update(learning_rate=math.nan), "learning_rate and init_scale must be finite"),
        (lambda config: config["loss"].update(beta=math.inf), "beta must be finite and >= 0"),
    ])
    def test_mistyped_or_incomplete_train_config_rejected(self, tmp_path, edit, message):
        path = self.rewritten(tmp_path, lambda payload: edit(payload["train_config"]))
        with pytest.raises(CheckpointFormatError, match=re.escape(message)):
            load_checkpoint(path)

    def test_mismatched_dimension_fails_at_forward(self, tmp_path):
        data = toy_task(n=16, d=6)
        ckpt = train(data, data, toy_config(epochs=1, early_stop_patience=0))
        path = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        with pytest.raises(ValueError, match=r"expected two \(n, 6\) blocks"):
            forward(loaded.params, np.ones(9), np.ones(9))


class TestGridSearch:
    def test_explores_every_combination(self):
        data = toy_task(n=24)
        cfg = toy_config(epochs=3, early_stop_patience=0)
        best, rows = grid_search(
            data, data, cfg, {"learning_rate": [0.01, 0.05], "beta": [1.0, 2.0]}
        )
        assert len(rows) == 4
        combos = [row["combo"] for row in rows]
        assert {"beta": 1.0, "learning_rate": 0.01} in combos
        best_val = min(row["val_loss"] for row in rows)
        assert min(r["val_loss"] for r in best.history) == pytest.approx(best_val)

    def test_unknown_key_rejected(self):
        data = toy_task(n=8)
        with pytest.raises(ConfigInvalidError, match="unknown grid keys"):
            grid_search(data, data, toy_config(epochs=1), {"momentum": [0.9]})

    def test_with_grid_rejects_an_unknown_key(self):
        with pytest.raises(ConfigInvalidError, match=r"unknown grid keys: \['momentum'\]"):
            with_grid(toy_config(), {"alpha": 0.3, "momentum": 0.9})
        assert with_grid(toy_config(), {"alpha": 0.3, "h": 5}).loss.alpha == 0.3

    def test_empty_grid_trains_the_base_config_once(self, monkeypatch):
        from focusrank import ranker

        data = toy_task(n=24)
        cfg = toy_config(epochs=3, early_stop_patience=0)
        alone = train(data, data, cfg)
        calls = []
        monkeypatch.setattr(ranker, "train", lambda *args: calls.append(args) or alone)
        best, rows = grid_search(data, data, cfg, {})
        assert len(calls) == 1 and calls[0][2] == cfg
        assert best is alone
        assert rows == [{"combo": {}, "val_loss": min(r["val_loss"] for r in alone.history)}]

    def test_empty_value_list_rejected(self):
        data = toy_task(n=8)
        with pytest.raises(ValueError, match="grid values must be non-empty lists"):
            grid_search(data, data, toy_config(epochs=1), {"alpha": [0.3], "h": []})

    def test_no_validation_loss_keeps_the_first_combination(self):
        """With no epoch run no combination has a validation loss; the
        earliest one is returned, not a model outside the grid."""
        data = toy_task(n=8)
        best, rows = grid_search(data, data, toy_config(epochs=0), {"h": [3, 2]})
        assert [row["combo"] for row in rows] == [{"h": 3}, {"h": 2}]
        assert best.train_config.h == 3 and best.params.h == 3
