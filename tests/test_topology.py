import pickle
import re

import pytest
from hypothesis import given, settings

from conftest import topologies
from netcrit import topology
from netcrit.cli import RunManifest, execute_manifest, main
from netcrit.simulator import Scenario, SimConfig, run
from netcrit.topology import (
    NodeRole,
    Topology,
    TopologyError,
    build_routing_table,
    builtin_case,
    edge_key,
    load_topology,
    parse_topology,
    serialize_topology,
    validate_topology,
)

MINIMAL = "node S sink\nnode R1 router\nnode G1 generator\nedge S R1\nedge R1 G1"
BAD_IDS = ["../x", "a;b", "a-b", "a:b", "a,b"]


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
        # The generator rule owns this edge: the sink needs no rule of its own.
        with pytest.raises(TopologyError, match=re.escape(
                "generator 'G1' may connect only to routers (edge G1-S)")):
            parse_topology(MINIMAL + "\nedge G1 S")

    # Texts a parse or validation rule rejects, with the whole message.
    @pytest.mark.parametrize("text, message", [
        pytest.param("node S sink\nnode R1\n", "line 2: expected 'node <id> <role>'",
                     id="node-two-fields"),
        pytest.param("node S sink\nnode R1 router x\n", "line 2: expected 'node <id> <role>'",
                     id="node-four-fields"),
        pytest.param(MINIMAL + "\nedge R1", "line 6: expected 'edge <id> <id>'",
                     id="edge-two-fields"),
        pytest.param(MINIMAL + "\nedge R1 S G1", "line 6: expected 'edge <id> <id>'",
                     id="edge-four-fields"),
        pytest.param(MINIMAL + "\nnode G2 generator",
                     "generator 'G2' has no link (degree >= 1 required)",
                     id="isolated-generator"),
    ])
    def test_rejected_with_message(self, text, message):
        with pytest.raises(TopologyError, match=f"^{re.escape(message)}$"):
            parse_topology(text)

    def test_sink_id_of_topology_without_sink(self):
        t = Topology("nosink", nodes=(("R", NodeRole.ROUTER),), edges=())
        with pytest.raises(TopologyError, match="^topology 'nosink' has no sink$"):
            t.sink_id
        t = Topology("n" * 300, nodes=(("R", NodeRole.ROUTER),), edges=())
        with pytest.raises(TopologyError) as err:
            t.sink_id
        assert str(err.value) == f"topology '{'n' * 24}...' has no sink"

    @pytest.mark.parametrize("bad", BAD_IDS)
    def test_node_id_charset_enforced_with_line(self, bad):
        text = f"node S sink\nnode {bad} router\nnode G generator\nedge S {bad}\n"
        with pytest.raises(TopologyError, match=r"line 2: node id .* \[A-Za-z0-9_\]"):
            parse_topology(text)
        # On an edge line too, at either end, before validation could call
        # the id undeclared.
        for edge in (f"edge {bad} R1", f"edge R1 {bad}"):
            with pytest.raises(TopologyError, match=rf"^line 6: node id '{re.escape(bad)}' "):
                parse_topology(f"{MINIMAL}\n{edge}\n")

    @pytest.mark.parametrize("bad", BAD_IDS)
    def test_node_id_charset_enforced_before_any_run(self, bad, tmp_path):
        # A hand-built topology never meets parse_topology; its ids would
        # otherwise reach CSV rows and run directory names.
        t = Topology("bad", nodes=(("S", NodeRole.SINK), (bad, NodeRole.ROUTER),
                                   ("G", NodeRole.GENERATOR)),
                     edges=(("S", bad), (bad, "G")))
        match = rf"node id '{re.escape(bad)}' must use only \[A-Za-z0-9_\]"
        with pytest.raises(TopologyError, match=match):
            validate_topology(t)
        with pytest.raises(TopologyError, match=match):
            run(t, SimConfig(duration=10.0, seed=1), Scenario.dos(bad))
        with pytest.raises(TopologyError, match=match):
            RunManifest(topology=t, scenarios=(Scenario.dos(bad),), seeds=(1,),
                        duration=10.0, out_dir=tmp_path / "out")
        assert not (tmp_path / "out" / "runs").exists()
        assert list(tmp_path.iterdir()) == []

    def test_load_skips_utf8_byte_order_mark(self, tmp_path):
        text = serialize_topology(builtin_case(3))
        (tmp_path / "plain").mkdir()
        (tmp_path / "bom").mkdir()
        (tmp_path / "plain" / "case3.topo").write_text(text, encoding="utf-8")
        (tmp_path / "bom" / "case3.topo").write_text(text, encoding="utf-8-sig")
        assert (tmp_path / "bom" / "case3.topo").read_bytes().startswith(b"\xef\xbb\xbf")
        assert (load_topology(tmp_path / "bom" / "case3.topo")
                == load_topology(tmp_path / "plain" / "case3.topo"))

    def test_missing_roles_rejected(self):
        with pytest.raises(TopologyError, match="no sink"):
            parse_topology("node R1 router\nnode G1 generator\nedge R1 G1")
        with pytest.raises(TopologyError, match="no generator"):
            parse_topology("node S sink\nnode R1 router\nedge S R1")
        with pytest.raises(TopologyError, match="no router"):
            parse_topology("node S sink\nnode G1 generator\n")


# Topology files whose text an error message must not echo whole: each with
# the start of its message.
_LONG_INPUTS = [
    pytest.param("node S sink\nnode " + "a-" * 2500 + " router\n",
                 "line 2: node id 'a-a-a-", id="5000-char-node-id"),
    pytest.param(MINIMAL + "\n" + "x" * 5000 + " S R1\n",
                 "line 6: unknown directive 'xxxx", id="5000-char-directive"),
    pytest.param("node S sink\nnode R1 " + "r" * 5000 + "\n",
                 "line 2: unknown role 'rrrr", id="5000-char-role"),
    pytest.param(MINIMAL + "\nedge R1 " + "Q" * 5000 + "\n",
                 "edge R1-QQQQ", id="5000-char-undeclared-edge-end"),
    pytest.param(MINIMAL + "".join(f"\nnode R{i} router" for i in range(2, 3002)),
                 "graph not connected; unreachable from sink: R10, R100, R1000",
                 id="3000-unreachable-routers"),
]


@pytest.mark.parametrize("text, message", _LONG_INPUTS)
def test_long_input_is_not_echoed_whole(tmp_path, capsys, text, message):
    path = tmp_path / "long.topo"
    path.write_text(text, encoding="utf-8")
    assert main(["metrics", "--topology", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1 and len(err.encode()) <= 200


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
            e for e in (edge_key(u, v) for u, v in t.edges)
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
        keys = {edge_key(u, v) for u, v in t.edges}
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

    def test_repeated_calls_share_one_table(self):
        t = builtin_case(2)
        assert build_routing_table(t) is build_routing_table(t)

    def test_alternating_topologies_get_their_own_table(self):
        t2, t3 = builtin_case(2), builtin_case(3)
        for t in (t2, t3, t2, t3):
            table = build_routing_table(t)
            assert table.routers == t.router_ids
            assert table == build_routing_table.__wrapped__(t)

    @given(topologies(multihome_prob=0.5))
    def test_table_carries_generator_injection(self, t):
        table = build_routing_table(t)
        assert table.generators == t.generator_ids
        assert len(table.inject) == len(table.generators)
        for gid, targets in zip(table.generators, table.inject):
            assert names(t, table, targets) == t.adjacency[gid]

    def test_validates_before_compiling(self):
        t = Topology(name="dup", nodes=(("S", NodeRole.SINK), ("R", NodeRole.ROUTER),
                                        ("G", NodeRole.GENERATOR)),
                     edges=(("S", "R"), ("R", "G"), ("G", "R")))
        with pytest.raises(TopologyError, match="duplicate edge G-R"):
            build_routing_table(t)

    def test_campaign_validates_its_topology_once(self, tmp_path, monkeypatch):
        t = builtin_case(2)
        build_routing_table.cache_clear()
        checked = []
        validate = topology.validate_topology
        monkeypatch.setattr(topology, "validate_topology",
                            lambda topo: checked.append(topo) or validate(topo))
        scenarios = (Scenario.stable(), *(Scenario.dos(r) for r in t.router_ids))
        execute_manifest(RunManifest(topology=t, scenarios=scenarios, seeds=(1, 2, 3),
                                     duration=5.0, out_dir=tmp_path))
        assert checked == [t]

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

    def test_hash_is_computed_once_and_not_pickled(self):
        t = builtin_case(2)
        again = parse_topology(serialize_topology(t), name=t.name)
        assert hash(again) == hash(t) == hash((t.name, t.nodes, t.edges))
        assert "_hash" in vars(t)
        # Another process hashes strings differently, so a pickled topology
        # must hash itself afresh there.
        copy = pickle.loads(pickle.dumps(t))
        assert "_hash" not in vars(copy) and copy == t and hash(copy) == hash(t)
