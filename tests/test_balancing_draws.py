"""twisted_balancing_residual draws all its samples at once.

Row s of the one draw is read in the order the samples used to be drawn
one at a time (oracles.looped_balancing_draws): eta's real and imaginary
parts, zeta's, then each middle block's.  The draws, the generator's
state after them and the residual must be the loop's bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

import moritalab.wstar.fusion as fusion_module
from moritalab.wstar import (
    MultiMatrixAlgebra,
    block_correspondence,
    conjugate_correspondence,
    connes_fusion,
    gns_standard_form,
    random_faithful_state,
    twisted_balancing_residual,
)
from oracles import looped_balancing_draws


def _bits(x: np.ndarray) -> bytes:
    return np.ascontiguousarray(x).tobytes()


@pytest.mark.parametrize("blocks", [(2,), (2, 1), (1, 2, 2)])
@pytest.mark.parametrize("seed", [1, 7, 31])
def test_one_draw_is_the_loop_bit_for_bit(blocks, seed, monkeypatch):
    N = MultiMatrixAlgebra(blocks)
    std = gns_standard_form(N, random_faithful_state(N, np.random.default_rng(seed)))
    A = MultiMatrixAlgebra((2, 1))
    H = block_correspondence(A, N, [[1] * len(blocks), [0] * (len(blocks) - 1) + [2]])
    fus = connes_fusion(H, conjugate_correspondence(H), std)
    batched, looped = (np.random.default_rng(seed), np.random.default_rng(seed))
    draws = fusion_module._balancing_draws(H.dim, H.dim, N, batched, 120)
    reference = looped_balancing_draws(H.dim, H.dim, N, looped, 120)
    assert [(x.dtype, x.shape, _bits(x)) for x in draws] \
        == [(x.dtype, x.shape, _bits(x)) for x in reference]
    assert batched.standard_normal() == looped.standard_normal()

    residual = twisted_balancing_residual(fus, std, np.random.default_rng(seed), samples=120)
    monkeypatch.setattr(fusion_module, "_balancing_draws", looped_balancing_draws)
    assert _bits(np.float64(residual)) == _bits(np.float64(
        twisted_balancing_residual(fus, std, np.random.default_rng(seed), samples=120)))
    assert residual <= 1e-8
