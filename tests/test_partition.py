import random
from fractions import Fraction

import pytest

from ordolab import (
    CertificateError,
    Graph,
    GraphicMatroid,
    ModularOracle,
    UniformMatroid,
    compute_principal_partition,
    linearity_stats,
    minimize_offset,
)
from ordolab.partition import PrincipalPartition

from helpers import TableOracle

from ordolab.instances import random_connected_graph, triangle_with_bridge

TB = GraphicMatroid(triangle_with_bridge())


def test_partition_loop_edge_is_the_zero_step():
    loopy = GraphicMatroid(Graph(3, ((0, 0), (0, 1), (1, 2))))
    pp = compute_principal_partition(loopy)
    assert pp.sets == (0, 0b001, 0b111)  # the loop edge, then the two bridges
    assert pp.critical_values == (Fraction(0), Fraction(1))


def test_partition_of_a_loopless_graph_has_no_zero_step():
    assert compute_principal_partition(TB).critical_values[0] > 0


def test_partition_modular():
    pp = compute_principal_partition(ModularOracle(m=4))
    assert pp.sets == (0, 0b1111)
    assert pp.critical_values == (Fraction(1),)


def test_partition_parallel_edges():
    M = GraphicMatroid(Graph(2, ((0, 1),) * 3))
    pp = compute_principal_partition(M)
    assert pp.sets == (0, 0b111)
    assert pp.critical_values == (Fraction(1, 3),)


def test_partition_triangle_bridge():
    pp = compute_principal_partition(TB)
    assert pp.sets == (0, 0b0111, 0b1111)
    assert pp.critical_values == (Fraction(2, 3), Fraction(1))


def test_partition_rejects_a_negative_value():
    # modular with weights (-1, 1): submodular, so its base is certified
    with pytest.raises(ValueError, match="negative"):
        compute_principal_partition(TableOracle([0, -1, 1, 0]))


def test_zero_set_of_zero_function():
    # the zero function's zero set is the whole ground: one lambda = 0 step
    pp = compute_principal_partition(ModularOracle([0, 0, 0]))
    assert pp.sets == (0, 0b111)
    assert pp.critical_values == (Fraction(0),)


def test_partition_trivial_function():
    pp = compute_principal_partition(ModularOracle([0, 0]))
    assert pp.sets == (0, 0b11)
    assert pp.critical_values == (Fraction(0),)
    pp = compute_principal_partition(ModularOracle([]))
    assert pp.sets == (0,) and pp.critical_values == ()


def test_partition_validation():
    with pytest.raises(ValueError):
        PrincipalPartition((0, 0b01, 0b11), (Fraction(2), Fraction(1)))
    with pytest.raises(ValueError):
        PrincipalPartition((0b01, 0b11), (Fraction(1),))


def test_chain_property_between_critical_values():
    pp = compute_principal_partition(TB)
    probes = [
        (Fraction(1, 3), 0),
        (Fraction(1, 2), 0),
        (Fraction(5, 6), 0b0111),
        (Fraction(9, 8), 0b1111),
        (Fraction(5), 0b1111),
    ]
    for lam, expected in probes:
        assert minimize_offset(TB, lam).maximal_minimizer == expected
        assert expected in pp.sets


def test_partition_sets_minimize_within_their_size():
    rng = random.Random(11)
    for _ in range(10):
        n = rng.randint(3, 6)
        G = random_connected_graph(n, rng.randint(n - 1, min(9, n * (n - 1) // 2)), rng)
        f = GraphicMatroid(G)
        pp = compute_principal_partition(f)
        vals = f.dense_values()
        for S in pp.sets[1:]:
            size = S.bit_count()
            best_same_size = min(
                vals[T] for T in range(1 << f.m) if T.bit_count() == size
            )
            assert vals[S] == best_same_size


def test_critical_value_growth_formula():
    rng = random.Random(12)
    for _ in range(10):
        n = rng.randint(3, 6)
        G = random_connected_graph(n, rng.randint(n - 1, min(9, n * (n - 1) // 2)), rng)
        f = GraphicMatroid(G)
        pp = compute_principal_partition(f)
        for lam, lo, hi in zip(pp.critical_values, pp.sets, pp.sets[1:]):
            assert lam == Fraction(f(hi) - f(lo), hi.bit_count() - lo.bit_count())
            # both endpoints minimize at the critical value
            res = minimize_offset(f, lam)
            assert f(lo) - lam * lo.bit_count() == res.min_value
            assert f(hi) - lam * hi.bit_count() == res.min_value


def test_partition_of_a_supermodular_oracle_fails_its_certificate():
    # f({0}) = f({1}) = 1, f(E) = 3: the two minimizers of size 1 tie
    with pytest.raises(CertificateError):
        compute_principal_partition(TableOracle([0, 1, 1, 3]))


def test_linearity_stats_uniform():
    stats = linearity_stats(UniformMatroid(3, 2))
    assert stats.kappa == 1 and stats.linearity == 2


def test_linearity_stats_modular():
    stats = linearity_stats(ModularOracle(m=5))
    assert stats.kappa == 1 and stats.linearity == 5


def test_linearity_stats_parallel_edges():
    M = GraphicMatroid(Graph(2, ((0, 1),) * 4))
    stats = linearity_stats(M)
    assert stats.linearity == 1


def test_linearity_stats_rejects_trivial():
    with pytest.raises(ValueError):
        linearity_stats(ModularOracle([0, 0]))
