"""The butterfly's block levels run only on cache blocks that hold a mask.

``_values`` places the coefficients in a table of ``+0.0`` and passes the
butterfly the block rows that hold a mask; every other block is left as
it is, all ``+0.0``.  These tests check the bytes against the plain level
loop of ``helpers.reference_values`` and count the block levels run.
"""

import hashlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compwiretap import MultilinearPolynomial, inverse_wht, mul, wht
from compwiretap import boolfn
from helpers import (
    DictPolynomial,
    block_grid,
    chain_pair_polys,
    reference_butterfly,
    reference_values,
    use_workers,
)


def sparse_poly(rng, n, blocks, per_block=3, exact=False):
    """Up to ``per_block`` random masks in each of the listed block rows."""
    block = min(1 << n, boolfn._BLOCK)
    masks = {int(r) * block + int(low) for r in blocks
             for low in rng.integers(0, block, per_block)}
    if exact:
        values = [Fraction(int(a), int(b)) for a, b in zip(
            rng.integers(-99, 100, len(masks)), rng.integers(1, 50, len(masks)))]
    else:
        values = rng.standard_normal(len(masks)).tolist()
    return MultilinearPolynomial(n, dict(zip(sorted(masks), values)))


def assert_values_match(poly):
    expected = reference_values(poly).tobytes()
    assert boolfn._values(poly).tobytes() == expected
    assert inverse_wht(poly).values.tobytes() == expected


def block_levels(monkeypatch):
    """Record the block-phase ``_levels`` calls of later butterflies.

    The block phase starts at level 1; the strips start at the strip
    width, which is above 1 for every table size used here.
    """
    calls = []
    levels = boolfn._levels

    def counted(a, scratch, h):
        if h == 1:
            calls.append(a.size)
        return levels(a, scratch, h)

    monkeypatch.setattr(boolfn, "_levels", counted)
    return calls


@pytest.mark.parametrize("n", [17, 18, 19, 20])
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("exact", [False, True])
def test_sparse_blocks_match_level_loop(monkeypatch, n, workers, exact):
    use_workers(monkeypatch, workers)
    rng = np.random.default_rng(n * 10 + workers)
    rows = 1 << (n - 16)
    used = rng.choice(rows, size=int(rng.integers(1, rows)), replace=False)
    assert_values_match(sparse_poly(rng, n, used, exact=exact))


@pytest.mark.parametrize("workers", [1, 2])
def test_edge_block_sets_match_level_loop(monkeypatch, workers):
    use_workers(monkeypatch, workers)
    rng = np.random.default_rng(workers)
    n = 18
    rows = 1 << (n - 16)
    for poly in (MultilinearPolynomial(n, {}),
                 MultilinearPolynomial(n, {0: Fraction(1, 3)}),
                 sparse_poly(rng, n, [rows - 1]),
                 sparse_poly(rng, n, range(rows))):
        assert_values_match(poly)


def test_n24_chain_matches_level_loop(monkeypatch):
    # 9 of the 256 blocks hold a mask; one full table at a time is held
    use_workers(monkeypatch, 2)
    f, _ = chain_pair_polys(24)
    expected = hashlib.sha256(reference_values(f).data).digest()
    assert hashlib.sha256(boolfn._values(f).data).digest() == expected


@settings(max_examples=80)
@given(st.sampled_from([(4, 4), (32, 10)]), st.integers(1, 2),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_small_blocks_interleave_used_and_skipped(block_n, workers, exact, seed):
    # many small blocks, so used and skipped rows alternate at small n
    block, max_n = block_n
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, max_n + 1))
    rows = max(1, (1 << n) // block)
    used = rng.choice(rows, size=int(rng.integers(0, rows + 1)), replace=False)
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(boolfn, "_BLOCK", block)
        use_workers(monkeypatch, workers)
        assert_values_match(sparse_poly(rng, n, used, per_block=2, exact=exact))


def test_mul_dense_path_skips_empty_blocks_n17(monkeypatch):
    # f only in block 0 and g only in block 1: each table skips a block,
    # and 400 * 400 terms is above 2**17, so mul takes the dense path
    n = 17
    rng = np.random.default_rng(17)
    low = rng.choice(1 << 16, size=400, replace=False)
    f = MultilinearPolynomial(n, dict(zip(low.tolist(),
                                          rng.standard_normal(400).tolist())))
    g = MultilinearPolynomial(n, dict(zip((low + (1 << 16)).tolist(),
                                          rng.standard_normal(400).tolist())))
    calls = block_levels(monkeypatch)
    product = mul(f, g)
    assert calls == [1 << 16] * 4  # one block per table, two for the spectrum
    oracle = DictPolynomial(n, dict(f.coeffs)).mul(DictPolynomial(n, dict(g.coeffs)))
    assert product.masks.tolist() == list(oracle.coeffs)
    assert (product.values.tobytes()
            == np.array(list(oracle.coeffs.values())).tobytes())


def test_block_phase_runs_on_used_blocks_only(monkeypatch):
    calls = block_levels(monkeypatch)
    rng = np.random.default_rng(20)
    poly = sparse_poly(rng, 20, [0, 5, 15])
    assert_values_match(poly)
    # _values and inverse_wht; the reference is a plain loop
    assert calls == [1 << 16] * 6
    calls.clear()
    boolfn._values(MultilinearPolynomial(20, {}))
    assert calls == []
    # the forward transform still runs every block
    table = inverse_wht(poly)
    calls.clear()
    wht(table)
    assert calls == [1 << 16] * 16
    calls.clear()
    a = np.random.default_rng(1).standard_normal(1 << 17)
    assert (boolfn._butterfly(block_grid(a), [0, 1]).tobytes()
            == reference_butterfly(a).tobytes())
    assert calls == [1 << 16] * 2
