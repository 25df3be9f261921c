"""The shared numeric rules: the rank range, the reconstruction contract
(relative_error within TOLERANCE) and the one quantized-layer scorer, seen
from every entry point that applies them."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from pissa import quant
from pissa.adapter import (WINDOWS, lora_init, merge, pissa_init,
                           reconstruction_error, variant_init)
from pissa.harness import generate_spectral_matrix
from pissa.linalg import (TOLERANCE, RandomSource, frobenius_norm, leading_svd,
                          randomized_svd, relative_error)
from pissa.quant import (QuantConfig, QuantizedMatrix, error_reduction_ratio,
                         loftq_init, qlora_init, qpissa_init, quant_report)
from pissa.train import STRATEGIES

RANK_ENTRY_POINTS = {
    "leading_svd": lambda w, r: leading_svd(w, r),
    "randomized_svd": lambda w, r: randomized_svd(w, r, 1, RandomSource(0)),
    "pissa_init": lambda w, r: pissa_init(w, r),
    **{f"variant_init_{window}":
       lambda w, r, window=window: variant_init(w, r, window) for window in WINDOWS},
    "lora_init": lambda w, r: lora_init(w, r, RandomSource(0)),
    "qlora_init": lambda w, r: qlora_init(w, r, RandomSource(0)),
    "qpissa_init": lambda w, r: qpissa_init(w, r, 3),
    "loftq_init": lambda w, r: loftq_init(w, r, 3),
}


@pytest.mark.parametrize("entry", sorted(RANK_ENTRY_POINTS))
@pytest.mark.parametrize("r", [0, 7])
def test_one_rank_error_from_every_entry_point(entry, r, monkeypatch):
    def no_quantize(*args, **kwargs):
        raise AssertionError("quantize ran before the rank check")

    monkeypatch.setattr(quant, "quantize", no_quantize)
    w = RandomSource(1).normal((8, 6))
    with pytest.raises(ValueError) as exc:
        RANK_ENTRY_POINTS[entry](w, r)
    assert str(exc.value) == f"rank {r} out of range for matrix of shape (8, 6)"


def _rank_three(m, n):
    src = RandomSource(3)
    return src.normal((m, 3)) @ src.spawn(1).normal((3, n))


EDGE_INPUTS = {
    "zero_8x6": lambda: np.zeros((8, 6)),
    "row_1x7": lambda: RandomSource(4).normal((1, 7)),
    "column_7x1": lambda: RandomSource(5).normal((7, 1)),
    "wide_6x10": lambda: RandomSource(6).normal((6, 10)),
    "rank3_12x9": lambda: _rank_three(12, 9),
}

# Every init strategy as the trainer calls it, plus both alternating
# initializers at three rounds.
EDGE_INITS = {
    **{name: lambda w, r, init=init: init(w, r, RandomSource(2), QuantConfig())
       for name, init in STRATEGIES.items()},
    "qpissa_T3": lambda w, r: qpissa_init(w, r, 3),
    "loftq_T3": lambda w, r: loftq_init(w, r, 3),
}


@pytest.mark.parametrize("init", sorted(EDGE_INITS))
@pytest.mark.parametrize("name", sorted(EDGE_INPUTS))
def test_edge_inputs_reach_every_initializer(name, init):
    w = EDGE_INPUTS[name]()
    for r in (1, min(w.shape)):
        layer = EDGE_INITS[init](w, r)
        if isinstance(layer.base, QuantizedMatrix):
            assert np.isfinite(merge(layer)).all()
            if w.any():
                rep = quant_report(w, layer)
                assert np.isfinite([rep.nuclear_error, rep.frobenius_error,
                                    rep.reduction_ratio_percent]).all()
            else:
                # Direct quantization of zero is exact: no ratio to take.
                with pytest.raises(ZeroDivisionError):
                    quant_report(w, layer)
                with pytest.raises(ZeroDivisionError):
                    error_reduction_ratio(w, layer)
        else:
            assert reconstruction_error(w, layer) <= TOLERANCE


class TestRelativeError:
    def test_relative_above_unit_norm(self):
        ref = np.full((2, 2), 3.0)  # norm 6
        diff = np.array([[0.0, 1.5], [0.0, 0.0]])
        assert relative_error(diff, ref) == 0.25

    def test_relative_below_unit_norm(self):
        # No floor on the denominator: a small ref's error stays relative.
        ref = np.full((2, 2), 0.25)  # norm 0.5
        diff = np.array([[3.0, 4.0]])
        assert relative_error(diff, ref) == 10.0

    @pytest.mark.parametrize("s", [1e-6, 1.0, 1e6])
    def test_reconstruction_contract_is_scale_free(self, s):
        # A base entry moved by 1e-8 of the weight's scale is the same
        # relative miss at every scale, so it fails the contract at each.
        w0 = generate_spectral_matrix(16, 16, 1.0, 0)
        w = s * w0
        layer = pissa_init(w, 4)
        base = layer.base.copy()
        base[0, 0] += 1e-8 * s
        err = reconstruction_error(w, replace(layer, base=base))
        assert err > TOLERANCE
        assert err == pytest.approx(1e-8 / frobenius_norm(w0), rel=1e-6)

    def test_finite_where_the_reference_norm_overflows(self):
        # ||ref||_F = 1.5e308 * sqrt(2) overflows float64; the ratio does not.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = relative_error(np.diag([1e308, 0.0]), np.diag([1.5e308, 1.5e308]))
        assert got == pytest.approx(1.0 / (1.5 * math.sqrt(2.0)), rel=0, abs=1e-15)

    def test_defined_at_zero_reference(self):
        assert relative_error(np.array([[0.0, 2.0]]), np.zeros((3, 3))) == 2.0
        assert relative_error(np.zeros((3, 3)), np.zeros((3, 3))) == 0.0
