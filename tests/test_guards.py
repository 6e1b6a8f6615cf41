"""Input guards that no other test reaches: each raises its error class with its message."""

import re
from dataclasses import replace

import numpy as np
import pytest

from genoseq import data, gradcheck, mf, rnn, tasks
from genoseq.errors import ConfigError, DataError


def _params():
    return rnn.rnn_init("simple_tanh", 2, 3, 1, seed=0)


def _accuracy_on_holed_matrix():
    truth = data.GenotypeMatrix([[0, 1], [2, 1]])
    holed = data.GenotypeMatrix([[0, data.MISSING_SENTINEL], [2, 1]])
    return mf.imputation_accuracy(truth, holed, np.zeros((2, 2), dtype=bool))


GUARDS = {
    "genotype_codes_not_2d": (lambda: data.GenotypeMatrix([0, 1, 2]),
                              DataError, "codes must be 2-D, got shape (3,)"),
    "phenotype_values_not_2d": (lambda: data.PhenotypeTable([1.0, 2.0]),
                                DataError, "values must be 2-D, got shape (2,)"),
    "unknown_missing_mode": (lambda: data.synth_lowrank_genotypes(4, 5, 2, 0.1, 0, "row"),
                             ConfigError, "unknown missing_mode 'row'"),
    "zero_traits": (lambda: data.synth_phenotypes(data.GenotypeMatrix(np.zeros((4, 9))), traits=0),
                    ConfigError, "traits must be >= 1, got 0"),
    "zero_chunk_width": (lambda: data.genotype_sequences(data.GenotypeMatrix(np.zeros((2, 4))), 0),
                         ConfigError, "chunk_width must be >= 1, got 0"),
    "negative_mf_epochs": (lambda: mf.MfConfig(epochs=-1),
                           ConfigError, "epochs must be >= 0, got -1"),
    "factor_widths_differ": (lambda: mf.FactorPair(np.zeros((2, 3)), np.zeros((4, 2))),
                             DataError, "factor shapes incompatible: p (2, 3), q (4, 2)"),
    "mf_init_without_samples": (lambda: mf.mf_init(0, 5, mf.MfConfig(), 1),
                                DataError, "need samples, snps >= 1, got 0x5"),
    "accuracy_on_holed_matrix": (_accuracy_on_holed_matrix, DataError,
                                 "accuracy needs fully observed truth and imputed matrices"),
    "rnn_tensor_wrong_shape": (lambda: replace(_params(), w_ho=np.zeros((1, 4))),
                               DataError, "w_ho must have shape (1, 3), got (1, 4)"),
    "h0_wrong_shape": (lambda: rnn.rnn_forward(_params(), np.zeros((2, 4, 2)), h0=np.zeros(4)),
                       DataError, "h0 must have shape (3,) or (2, 3), got (4,)"),
    "gradient_wrong_shape": (lambda: rnn.sgd_step(_params(), {**_params().tensors(),
                                                              "b_h": np.zeros(4)}, 0.1),
                             DataError, "gradient b_h has shape (4,), expected (3,)"),
    "pearson_lengths_differ": (lambda: rnn.pearson_correlation([1.0, 2.0, 3.0], [1.0, 2.0]),
                               DataError, "length mismatch: (3,) vs (2,)"),
    "deep_recall_too_short": (lambda: tasks.deep_recall_task(3, length=4, seed=0), ConfigError,
                              "need n_sequences >= 1 and length >= 5, got 3, 4"),
}


@pytest.mark.parametrize("name", GUARDS)
def test_guard_raises_its_error_and_message(name):
    call, error, message = GUARDS[name]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_gradient_below_the_magnitude_floor_has_no_error():
    # no component above 1e-8 on either side: nothing is compared, however far apart
    assert gradcheck.max_relative_error(np.array([1e-8, -5e-9]), np.array([0.0, 1e-8]), 1e-12) == 0.0
