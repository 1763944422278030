import numpy as np
import pytest

import _oracles as oracle
from qrwalk import (
    GraphError,
    PortGraph,
    ProductGraph,
    ValidationError,
    build_graph,
    complete_graph,
    cycle_graph,
    graph_from_json,
    graph_hash,
    random_regular_graph,
    torus_graph,
)
from qrwalk.graphs import torus_dims_of


class TestBuildGraph:
    def test_c4_sorted_degrees_and_dimension(self, c4_sorted):
        assert c4_sorted.num_vertices == 4
        assert all(c4_sorted.degree(v) == 2 for v in range(4))
        assert c4_sorted.basis_dim == 8

    def test_single_edge(self, single_edge):
        assert single_edge.degree(0) == single_edge.degree(1) == 1
        assert single_edge.basis_dim == 2

    def test_torus_10x10(self, torus1010):
        assert torus1010.num_vertices == 100
        assert all(torus1010.degree(v) == 4 for v in range(100))
        assert torus1010.basis_dim == 400

    def test_explicit_ordering(self):
        g = build_graph([(0, 1), (1, 2), (2, 0)],
                        ordering=[[2, 1], [0, 2], [1, 0]])
        assert g.out_neighbors == ((2, 1), (0, 2), (1, 0))

    def test_explicit_ordering_must_be_permutation(self):
        with pytest.raises(ValidationError):
            build_graph([(0, 1), (1, 2), (2, 0)],
                        ordering=[[2, 2], [0, 2], [1, 0]])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphError, match="duplicate"):
            build_graph([(0, 1), (1, 0)])

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self-loop"):
            build_graph([(0, 0), (0, 1)])

    def test_isolated_vertex_rejected(self):
        with pytest.raises(GraphError, match="isolated"):
            build_graph([(0, 1)], num_vertices=3)

    def test_empty_edge_list_rejected(self):
        with pytest.raises(GraphError):
            build_graph([])

    def test_asymmetric_constructor_rejected(self):
        # vertex 2 lists 0 but 0 does not list 2 (CSR form of the
        # neighbour lists ((1,), (0,), (0,)))
        with pytest.raises(GraphError, match="symmetric"):
            PortGraph(port_offsets=[0, 1, 2, 3], heads=[1, 0, 0])


class TestPortMaps:
    def test_eta_c4_sorted(self, c4_sorted):
        assert c4_sorted.eta(0, 0) == 1
        assert c4_sorted.eta(0, 1) == 3
        assert c4_sorted.eta(1, 0) == 0

    def test_eta_out_of_range(self, c4_sorted):
        with pytest.raises(IndexError):
            c4_sorted.eta(0, 2)

    @pytest.mark.parametrize("call", [lambda g: g.eta(-2, 0),
                                      lambda g: g.degree(-1),
                                      lambda g: g.degree(6)])
    def test_vertex_outside_the_graph_does_not_wrap(self, call):
        # a negative vertex must not index from the end of the arrays
        with pytest.raises(IndexError, match="vertex"):
            call(cycle_graph(6))

    def test_torus_port_order_at_origin(self, torus1010):
        # fixed order (+x, -x, +y, -y) with row-major vertex ids
        assert torus1010.out_neighbors[0] == (10, 90, 1, 9)

    def test_sigma_default_convention(self, c4_sorted):
        # port of v associated with inward neighbour u = index of u in
        # v's sorted list
        assert c4_sorted.sigma(0, 1) == 0

    def test_sigma_single_edge(self, single_edge):
        assert single_edge.sigma(0, 1) == 0
        assert single_edge.sigma(1, 0) == 0

    @pytest.mark.parametrize("maker", [
        lambda: cycle_graph(5),
        lambda: torus_graph((3, 4)),
        lambda: complete_graph(4),
        lambda: build_graph([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]),
    ])
    def test_sigma_inv_inverse_property(self, maker):
        g = maker()
        for v in range(g.num_vertices):
            for c in range(g.degree(v)):
                assert g.sigma_inv(g.eta(v, c), v) == c

    def test_sigma_non_adjacent_raises(self, c4_sorted):
        with pytest.raises(ValidationError):
            c4_sorted.sigma(0, 2)


class TestInvariants:
    @pytest.mark.parametrize("maker", [
        lambda: cycle_graph(4),
        lambda: torus_graph((3, 3)),
        lambda: complete_graph(5),
        lambda: random_regular_graph(10, 3, seed=1),
        lambda: build_graph([(0, 1), (1, 2), (2, 0), (2, 3)]),
    ])
    def test_shift_closure_is_bijection(self, maker):
        g = maker()
        image = [g.basis_index(g.eta(v, c), g.sigma(v, g.eta(v, c)))
                 for v in range(g.num_vertices) for c in range(g.degree(v))]
        assert sorted(image) == list(range(g.basis_dim))

    @pytest.mark.parametrize("maker", [
        lambda: cycle_graph(6),
        lambda: torus_graph((3, 5)),
        lambda: random_regular_graph(8, 3, seed=4),
    ])
    def test_symmetry_and_port_completeness(self, maker):
        g = maker()
        for v in range(g.num_vertices):
            nbrs = g.out_neighbors[v]
            assert len(set(nbrs)) == len(nbrs)
            for u in nbrs:
                assert g.has_edge(u, v)

    def test_basis_state_round_trip(self, torus44):
        for i in range(torus44.basis_dim):
            v, c = torus44.basis_state(i)
            assert torus44.basis_index(v, c) == i

    def test_cached_arrays_are_read_only(self):
        g = build_graph([(0, 1), (1, 2), (2, 0), (2, 3)])
        for arr in (g.degrees, g.vertex_of_basis, *g.degree_classes.values()):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 9
        assert g.degree(0) == 2 and g.vertex_of_basis[0] == 0
        assert g.degree_classes[2].tolist() == [0, 1]


class TestGenerators:
    def test_cycle_canonical_port_order(self, c4):
        assert c4.out_neighbors == ((1, 3), (2, 0), (3, 1), (0, 2))
        assert c4.torus_dims == (4,)

    def test_cycle_too_small(self):
        with pytest.raises(GraphError):
            cycle_graph(2)

    def test_torus_axis_guard(self):
        with pytest.raises(GraphError):
            torus_graph((2, 4))

    def test_complete_graph(self, k5):
        assert k5.basis_dim == 20
        assert k5.out_neighbors[2] == (0, 1, 3, 4)

    def test_random_regular(self):
        g = random_regular_graph(12, 4, seed=7)
        assert all(g.degree(v) == 4 for v in range(12))
        with pytest.raises(GraphError):
            random_regular_graph(5, 3, seed=0)  # odd n*d


class TestProductGraph:
    def test_degree_c4_pairs(self, c4):
        pg = ProductGraph(c4, 2)
        for u in [(0, 0), (1, 3), (2, 2)]:
            assert pg.degree(u) == 4

    def test_k1_reduces_to_base(self, c4):
        pg = ProductGraph(c4, 1)
        assert pg.degree((2,)) == c4.degree(2)

    def test_torus_pair_degree_against_brute_force(self, torus1010):
        pg = ProductGraph(torus1010, 2)
        u = (0, 57)
        brute = sum(
            1
            for w1 in range(100)
            for w2 in range(100)
            if torus1010.has_edge(u[0], w1) and torus1010.has_edge(u[1], w2)
        )
        assert brute == 16
        assert pg.degree(u) == brute

    def test_out_neighbors_lazy_enumeration(self, c4):
        pg = ProductGraph(c4, 2)
        nbrs = list(pg.out_neighbors((0, 1)))
        assert len(nbrs) == 4
        assert all(pg.has_edge((0, 1), w) for w in nbrs)

    def test_tuple_index_round_trip(self, c4):
        pg = ProductGraph(c4, 3)
        for idx in (0, 17, 63):
            assert np.ravel_multi_index(pg.tuple_of(idx), pg.shape) == idx

    def test_wrong_arity_rejected(self, c4):
        pg = ProductGraph(c4, 2)
        with pytest.raises(ValidationError, match="arity"):
            pg.degree((0, 1, 2))

    def test_a_port_graph_is_one_walker(self, c4):
        pg = ProductGraph(c4, 2)
        assert ProductGraph.of(c4) == ProductGraph(c4, 1)
        assert ProductGraph.of(pg) is pg

    def test_joint_basis_index_is_mixed_radix(self, c4):
        pg = ProductGraph(c4, 3)
        assert pg.basis_shape == (8, 8, 8) and pg.basis_dim == 512
        joint = pg.basis_index((1, 3, 0), (1, 0, 1))
        assert joint == (c4.basis_index(1, 1) * 8
                         + c4.basis_index(3, 0)) * 8 + c4.basis_index(0, 1)
        assert ProductGraph.of(c4).basis_index([2], [1]) \
            == c4.basis_index(2, 1)


    @pytest.mark.parametrize("walkers", [1, 2, 3])
    def test_arcs_list_each_states_heads_in_ascending_order(self, walkers):
        # shuffled port orders and degrees 1, 2 and 3: each walker's arcs
        # are taken by head, one block per tuple of the walkers' degrees
        g = build_graph([(0, 1), (1, 2), (2, 0), (2, 3), (0, 3), (3, 4)],
                        ordering=[[3, 1, 2], [2, 0], [3, 0, 1], [4, 0, 2],
                                  [3]])
        pg = ProductGraph(g, walkers)
        states = np.random.default_rng(walkers).permutation(pg.num_states)
        blocks = list(pg.arc_blocks(states))
        assert len(blocks) == 3 ** walkers
        listed = []
        for rows, ports, heads in blocks:
            assert np.all(np.diff(rows) > 0)
            for u, got in zip(states[rows].tolist(), heads.tolist()):
                assert got == sorted(np.ravel_multi_index(tuple(zip(
                    *pg.out_neighbors(pg.tuple_of(u)))), pg.shape).tolist())
            # every arc leaves its own state on the walker's port block
            tails = pg.outer_index([g.vertex_of_basis[p] for p in ports],
                                   pg.shape)
            assert np.array_equal(tails, np.broadcast_to(
                states[rows, None], tails.shape))
            listed.extend(rows.tolist())
        assert sorted(listed) == list(range(states.size))
        [(rows, ports, heads)] = pg.arc_blocks([])
        assert rows.size == 0 and heads.shape == (0, 0)
        assert [p.shape for p in ports] == [(0, 0)] * walkers

    def test_one_walker_edges_are_the_base_graphs(self, rng):
        g = random_regular_graph(12, 3, seed=4)
        src, dst = rng.integers(0, 12, size=(2, 5, 7))
        assert np.array_equal(ProductGraph(g, 1).has_edges(src, dst),
                              g.has_edges(src, dst))
        assert ProductGraph(g, 1).has_edges(src, dst).shape == (5, 7)

    @pytest.mark.parametrize("walkers", [1, 2, 3])
    def test_index_outside_the_space_is_no_edge(self, walkers):
        # state 0 is the tuple (0, ..., 0) and (3**K - 1) / 2 is (1, ..., 1);
        # -1 and 3**K lie outside the space
        pg = ProductGraph(cycle_graph(3), walkers)
        ones = (pg.num_states - 1) // 2
        got = pg.has_edges([-1, 0, pg.num_states, 0, ones],
                           [0, ones, 1, pg.num_states, -1])
        assert got.tolist() == [False, True, False, False, False]

    def test_distinct_moves_are_counted_by_their_key(self, c4):
        pg = ProductGraph(c4, 2)
        src, dst, counts = pg.distinct_moves([5, 1, 5, 1], [0, 5, 0, 4])
        assert src.tolist() == [1, 1, 5] and dst.tolist() == [4, 5, 0]
        assert counts.tolist() == [1, 1, 2]
        # the key 1 * 16 - 11 of 1 -> -11 would read as the move 0 -> 5
        assert pg.distinct_moves([1], [-11]) is None
        assert pg.distinct_moves([16], [0]) is None


class TestJsonInterchange:
    def test_round_trip_preserves_port_order(self, c4):
        doc = oracle.graph_to_json(c4)
        g2 = graph_from_json(doc)
        assert g2.out_neighbors == c4.out_neighbors

    def test_generator_shorthands(self):
        assert graph_from_json({"type": "cycle", "n": 5}).num_vertices == 5
        assert graph_from_json({"type": "torus",
                                "dims": [3, 3]}).basis_dim == 36
        assert graph_from_json({"type": "complete", "n": 4}).degree(0) == 3
        g = graph_from_json({"type": "random-regular", "n": 8, "d": 2,
                             "seed": 3})
        assert all(g.degree(v) == 2 for v in range(8))

    @pytest.mark.parametrize("doc", [
        {"type": "cycle", "n": 5},
        {"type": "torus", "dims": [3, 4, 5]},
        {"type": "complete", "n": 4},
        {"type": "random-regular", "n": 8, "d": 3, "seed": 2},
        oracle.graph_to_json(torus_graph((3, 4))),
        oracle.graph_to_json(complete_graph(3)),
    ])
    def test_torus_dims_read_without_building_the_graph(self, doc):
        assert torus_dims_of(doc) == graph_from_json(doc).torus_dims

    def test_sorted_ordering_document(self):
        g = graph_from_json({"n": 4, "edges": [[0, 1], [1, 2], [2, 3],
                                               [3, 0]],
                             "ordering": "sorted"})
        assert g.out_neighbors[0] == (1, 3)

    def test_hash_depends_on_port_order(self, c4, c4_sorted):
        assert graph_hash(c4) != graph_hash(c4_sorted)
        assert graph_hash(c4) == graph_hash(cycle_graph(4))
