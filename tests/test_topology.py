import pytest
from hypothesis import given, settings

from conftest import topologies
from netcrit.topology import (
    NodeRole,
    Topology,
    TopologyError,
    build_routing_table,
    builtin_case,
    edge_key,
    parse_topology,
    serialize_topology,
    validate_topology,
)

MINIMAL = "node S sink\nnode R1 router\nnode G1 generator\nedge S R1\nedge R1 G1"


class TestParse:
    def test_minimal_topology(self):
        t = parse_topology(MINIMAL)
        assert len(t.nodes) == 3
        assert t.sink_id == "S"
        assert t.router_ids == ("R1",)
        assert t.generator_ids == ("G1",)

    def test_declaration_order_preserved(self):
        t = parse_topology(MINIMAL)
        assert t.node_ids == ("S", "R1", "G1")

    def test_comments_and_blank_lines_ignored(self):
        text = "# header\n\nnode S sink  # trailing\nnode R1 router\nnode G1 generator\n\nedge S R1\nedge R1 G1\n"
        t = parse_topology(text)
        assert len(t.nodes) == 3

    def test_multiple_sinks_rejected(self):
        text = MINIMAL + "\nnode S2 sink\nedge S2 R1"
        with pytest.raises(TopologyError, match="multiple sinks"):
            parse_topology(text)

    def test_unknown_role_reports_line(self):
        with pytest.raises(TopologyError, match="line 2"):
            parse_topology("node S sink\nnode R1 gateway\n")

    def test_unknown_directive_reports_line(self):
        with pytest.raises(TopologyError, match="line 3"):
            parse_topology("node S sink\nnode R1 router\nlink S R1\n")

    def test_edge_with_undeclared_node(self):
        with pytest.raises(TopologyError, match="undeclared node 'R2'"):
            parse_topology(MINIMAL + "\nedge R1 R2")

    def test_self_loop_rejected(self):
        with pytest.raises(TopologyError, match="self-loop"):
            parse_topology(MINIMAL + "\nedge R1 R1")

    def test_duplicate_edge_rejected_unordered(self):
        with pytest.raises(TopologyError, match="duplicate edge"):
            parse_topology(MINIMAL + "\nedge R1 S")

    def test_duplicate_node_rejected(self):
        with pytest.raises(TopologyError, match="duplicate node"):
            parse_topology("node S sink\nnode S router\n")

    def test_disconnected_rejected(self):
        text = MINIMAL + "\nnode R2 router\nnode G2 generator\nedge R2 G2"
        with pytest.raises(TopologyError, match="not connected"):
            parse_topology(text)

    def test_generator_generator_edge_rejected(self):
        text = MINIMAL + "\nnode G2 generator\nedge G1 G2"
        with pytest.raises(TopologyError, match="generator"):
            parse_topology(text)

    def test_generator_sink_edge_rejected(self):
        with pytest.raises(TopologyError):
            parse_topology(MINIMAL + "\nedge G1 S")

    @pytest.mark.parametrize("bad", ["../x", "a;b", "a-b", "a:b", "a,b"])
    def test_node_id_charset_enforced_with_line(self, bad):
        text = f"node S sink\nnode {bad} router\nnode G generator\nedge S {bad}\n"
        with pytest.raises(TopologyError, match=r"line 2: node id .* \[A-Za-z0-9_\]"):
            parse_topology(text)

    def test_missing_roles_rejected(self):
        with pytest.raises(TopologyError, match="no sink"):
            parse_topology("node R1 router\nnode G1 generator\nedge R1 G1")
        with pytest.raises(TopologyError, match="no generator"):
            parse_topology("node S sink\nnode R1 router\nedge S R1")
        with pytest.raises(TopologyError, match="no router"):
            parse_topology("node S sink\nnode G1 generator\n")


class TestBuiltins:
    def test_case2_counts(self):
        t = builtin_case(2)
        assert len(t.nodes) == 23
        assert len(t.router_ids) == 14
        assert len(t.generator_ids) == 8
        assert t.sink_id == "0"

    def test_case2_router_core_is_binary_tree(self):
        t = builtin_case(2)
        expected = {
            edge_key(*e)
            for e in [
                ("0", "1"), ("0", "2"), ("1", "3"), ("1", "4"), ("2", "5"), ("2", "6"),
                ("3", "7"), ("3", "8"), ("4", "9"), ("4", "10"), ("5", "11"),
                ("5", "12"), ("6", "13"), ("6", "14"),
            ]
        }
        core = {
            e for e in t.edge_keys()
            if t.roles[e[0]] is not NodeRole.GENERATOR
            and t.roles[e[1]] is not NodeRole.GENERATOR
        }
        assert core == expected

    def test_case2_leaves_have_one_generator_and_sink_degree_two(self):
        t = builtin_case(2)
        for leaf in [str(i) for i in range(7, 15)]:
            gens = [n for n in t.adjacency[leaf] if t.roles[n] is NodeRole.GENERATOR]
            assert len(gens) == 1
        assert len(t.adjacency[t.sink_id]) == 2

    def test_case3_structure(self):
        t = builtin_case(3)
        assert len(t.router_ids) == 5
        assert len(t.generator_ids) == 12
        assert len(t.edges) == 18  # 5 ring edges + 13 spokes
        degrees = {r: len(t.adjacency[r]) for r in t.router_ids}
        assert degrees["1"] == 3
        assert all(degrees[r] == 5 for r in ("2", "6", "10", "14"))

    def test_case1_counts_and_required_edges(self):
        t = builtin_case(1)
        assert len(t.router_ids) == 18
        assert len(t.generator_ids) == 7
        keys = set(t.edge_keys())
        for u, v in [("5", "7"), ("7", "11"), ("10", "11"), ("4", "8")]:
            assert edge_key(u, v) in keys

    def test_invalid_case_id(self):
        with pytest.raises(ValueError, match="invalid case id"):
            builtin_case(4)


def names(t, table, indices) -> tuple[str, ...]:
    ids = table.routers + (t.sink_id,)
    return tuple(ids[i] for i in indices)


class TestRoutingTable:
    def test_case3_router6_splits_between_ring_neighbors(self):
        t = builtin_case(3)
        table = build_routing_table(t)
        six, two = table.routers.index("6"), table.routers.index("2")
        assert names(t, table, table.hops[six][-1]) == ("2", "10")
        assert names(t, table, table.hops[six][two]) == ("10",)

    def test_router_adjacent_only_to_sink(self, mm1_topology):
        table = build_routing_table(mm1_topology)
        assert table.routers == ("R",)
        assert table.sink == 1
        assert table.hops == ({-1: (1,), 1: (1,)},)

    def test_router_with_only_generator_neighbors_fails(self):
        text = (
            "node S sink\nnode R1 router\nnode R2 router\nnode G1 generator\n"
            "edge S R1\nedge R1 G1\nedge G1 R2\n"
        )
        t = parse_topology(text)
        with pytest.raises(TopologyError, match="no eligible forwarding neighbor"):
            build_routing_table(t)

    @given(topologies())
    def test_table_invariants(self, t):
        table = build_routing_table(t)
        assert table.routers == t.router_ids
        assert table.sink == len(table.routers)
        assert len(table.hops) == len(table.routers)
        for r, row in enumerate(table.hops):
            everyone = row[-1]
            assert names(t, table, everyone) == tuple(
                n for n in t.adjacency[table.routers[r]] if n not in t.generator_ids)
            assert set(row) == {-1, *everyone}
            for a, candidates in row.items():
                if a == -1:
                    continue
                if everyone == (a,):
                    assert candidates == (a,)  # leaf: back on the arrival link
                else:
                    # every other candidate, in adjacency order
                    assert candidates == tuple(n for n in everyone if n != a)

    @given(topologies())
    def test_generators_never_forwarding_targets(self, t):
        table = build_routing_table(t)
        for row in table.hops:
            for candidates in row.values():
                assert all(0 <= n <= table.sink for n in candidates)


class TestRoundTrip:
    @given(topologies())
    @settings(max_examples=60)
    def test_serialize_parse_identity(self, t):
        again = parse_topology(serialize_topology(t), name=t.name)
        assert again.nodes == t.nodes
        assert set(map(frozenset, again.edges)) == set(map(frozenset, t.edges))

    def test_builtin_files_round_trip(self):
        for case_id in (1, 2, 3):
            t = builtin_case(case_id)
            again = parse_topology(serialize_topology(t), name=t.name)
            assert again == t
