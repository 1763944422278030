import numpy as np
import pytest

from qrwalk import (
    CoinSpec,
    UnitarityError,
    ValidationError,
    check_coin_unitary,
    cycle_graph,
    grover_coin,
    hadamard_coin,
    identity_coin,
    random_unitary_coin,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)


class TestHadamard:
    def test_h2_entries(self):
        h = hadamard_coin(2)
        expected = INV_SQRT2 * np.array([[1, 1], [1, -1]])
        assert np.allclose(h, expected, atol=0)

    def test_h4_is_kron_of_h2(self):
        h4 = hadamard_coin(4)
        assert np.allclose(h4, np.kron(hadamard_coin(2), hadamard_coin(2)))
        assert np.allclose(np.abs(h4), 0.5)

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_unitary(self, dim):
        h = hadamard_coin(dim)
        assert np.max(np.abs(h @ h.conj().T - np.eye(dim))) < 1e-12

    @pytest.mark.parametrize("dim", [0, 1, 3, 6])
    def test_non_power_of_two_rejected(self, dim):
        with pytest.raises(ValidationError):
            hadamard_coin(dim)


class TestGrover:
    def test_d2_is_swap(self):
        assert np.allclose(grover_coin(2), [[0, 1], [1, 0]], atol=0)

    def test_d4_entries(self):
        g = grover_coin(4)
        assert np.allclose(np.diag(g), -0.5)
        off = g - np.diag(np.diag(g))
        assert np.allclose(off[off != 0], 0.5)

    @pytest.mark.parametrize("dim", [2, 3, 4, 6])
    def test_unitary(self, dim):
        g = grover_coin(dim)
        assert np.max(np.abs(g @ g.conj().T - np.eye(dim))) < 1e-12

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValidationError):
            grover_coin(0)


class TestUnitarityCheck:
    def test_identity_and_random_pass(self, rng):
        check_coin_unitary(identity_coin(5))
        check_coin_unitary(random_unitary_coin(7, rng))

    def test_scaled_coin_names_column_norm(self):
        with pytest.raises(UnitarityError, match="column-norm"):
            check_coin_unitary(1.1 * hadamard_coin(2), label="vertex 0")

    def test_non_orthogonal_columns_named(self):
        bad = np.array([[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(UnitarityError, match="column-orthogonality"):
            check_coin_unitary(bad)

    def test_stack_names_the_first_failing_block(self):
        stack = np.stack([identity_coin(2), hadamard_coin(2),
                          np.array([[1.0, 1.0], [0.0, 0.0]]),
                          1.1 * hadamard_coin(2)])
        with pytest.raises(UnitarityError,
                           match="orthogonality condition violated at b2"):
            check_coin_unitary(stack, label=["b0", "b1", "b2", "b3"])

    def test_coin_spec_names_the_first_failing_vertex(self):
        blocks = [hadamard_coin(2)] * 4
        blocks[3] = 2.0 * blocks[3]
        blocks[1] = 1.1 * blocks[1]
        with pytest.raises(UnitarityError, match="norm .* at vertex 1:"):
            CoinSpec.from_blocks(cycle_graph(4), blocks)

    def test_non_square_rejected(self):
        with pytest.raises(ValidationError):
            check_coin_unitary(np.ones((2, 3)))
