import itertools
import json
import re

import numpy as np
import pytest

from coherentrx.constellation import bpsk, qam6
from coherentrx.photonics import NoiseModel
from coherentrx.simulator import exact_distribution, map_table
from coherentrx.tree import (
    MAX_LEAVES,
    DecisionTable,
    DecisionTree,
    Receiver,
    decode_leaf_index,
    displacement_report,
    leaf_index,
    level_offset,
    load_receiver,
    num_nodes,
    save_receiver,
)


def slot(arity, prefix):
    """Flat slot of the node an outcome prefix reaches, as the forward recursion lays it out."""
    return level_offset(arity, len(prefix)) + leaf_index(arity, len(prefix), prefix)


class TestIndexing:
    def test_root(self):
        assert slot(2, []) == 0
        assert slot(3, []) == 0

    def test_spec_slots(self):
        assert slot(2, [1, 0]) == 5
        assert slot(3, [2]) == 3

    def test_leaf_corners(self):
        assert leaf_index(2, 4, [0, 0, 0, 0]) == 0
        assert leaf_index(2, 4, [1, 1, 1, 1]) == 15
        assert leaf_index(3, 2, [1, 2]) == 5

    def test_leaf_requires_full_length(self):
        with pytest.raises(ValueError):
            leaf_index(2, 4, [0, 1])

    def test_outcome_range_checked(self):
        with pytest.raises(ValueError):
            leaf_index(2, 1, [2])
        with pytest.raises(ValueError):
            leaf_index(2, 2, [0, -1])

    @pytest.mark.parametrize("arity", [2, 3])
    def test_node_round_trip_exhaustive(self, arity):
        rounds = 6
        slots = [
            slot(arity, path)
            for d in range(rounds)
            for path in itertools.product(range(arity), repeat=d)
        ]
        # every slot hit exactly once: prefixes and slots are in bijection
        assert sorted(slots) == list(range(num_nodes(rounds, arity)))

    def test_leaf_cap(self):
        assert num_nodes(16, 2) == MAX_LEAVES - 1
        assert num_nodes(1, MAX_LEAVES) == 1
        for rounds, arity in [(17, 2), (11, 3), (1, MAX_LEAVES + 1), (10**9, 2)]:
            with pytest.raises(ValueError, match="leaves"):
                num_nodes(rounds, arity)

    @pytest.mark.parametrize("arity,rounds", [(2, 6), (3, 5)])
    def test_leaf_round_trip_exhaustive(self, arity, rounds):
        idxs = set()
        for path in itertools.product(range(arity), repeat=rounds):
            idx = leaf_index(arity, rounds, path)
            assert decode_leaf_index(arity, rounds, idx) == path
            idxs.add(idx)
        assert idxs == set(range(arity**rounds))


class TestDecisionTree:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            DecisionTree(3, 2, np.zeros(6, dtype=complex))
        with pytest.raises(ValueError):
            DecisionTree(0, 2, np.zeros(0, dtype=complex))

    @pytest.mark.parametrize(
        "rounds, arity, message",
        [
            (0, 2, "rounds must be at least 1, got 0"),
            (2, 1, "arity must be at least 2, got 1"),
            (17, 2, "a tree of arity 2 and 17 rounds exceeds 65536 leaves"),
        ],
    )
    def test_a_table_takes_the_tree_shape_rule(self, rounds, arity, message):
        # each was once accepted: a table checked only its guess count
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            DecisionTable(rounds, arity, np.zeros(arity**rounds, dtype=int))

    @pytest.mark.parametrize("rounds, size", [(2.0, 3), (True, 1)])
    def test_rounds_must_be_an_integer(self, rounds, size):
        # each was once accepted, as a tree of 2 rounds and of 1
        with pytest.raises(ValueError, match=f"^rounds must be an integer, got {rounds!r}$"):
            DecisionTree(rounds, 2, np.zeros(size, dtype=complex))
        with pytest.raises(ValueError, match=f"^rounds must be an integer, got {rounds!r}$"):
            DecisionTable(rounds, 2, np.zeros(2**size, dtype=int))

    def test_rejects_non_finite(self):
        nodes = np.zeros(7, dtype=complex)
        nodes[3] = np.nan
        with pytest.raises(ValueError):
            DecisionTree(3, 2, nodes)

    def test_level_nodes_are_views(self):
        t = DecisionTree.zeros(3, 2)
        t.level_nodes(1)[0] = 1 + 2j
        assert t.nodes[1] == 1 + 2j

    def test_parameter_count_qam6_case(self):
        # depth-6 ternary control logic: 364 nodes -> 728 real parameters,
        # 729 table entries, together above the thousand-variable mark
        t = DecisionTree.zeros(6, 3)
        assert t.nodes.size == 364
        assert t.n_parameters == 728
        table = DecisionTable(6, 3, np.zeros(729, dtype=int))
        assert table.guesses.size == 729
        assert t.n_parameters + table.guesses.size > 1000


class TestDisplacementReport:
    def test_identical_trees(self):
        t = DecisionTree(2, 2, np.array([1.0, 0.5j, -0.25 + 0.1j]))
        db, sign = displacement_report(t, t)
        np.testing.assert_allclose(db, 0.0, atol=1e-12)
        np.testing.assert_array_equal(sign, 1.0)

    def test_double_amplitude(self):
        ref = DecisionTree(1, 2, np.array([0.7 + 0.1j]))
        t = DecisionTree(1, 2, np.array([1.4 + 0.2j]))
        db, sign = displacement_report(t, ref)
        assert abs(db[0] - 6.020599913279624) < 1e-12
        assert sign[0] == 1.0

    def test_opposite_phase(self):
        ref = DecisionTree(1, 2, np.array([0.7 + 0.1j]))
        t = DecisionTree(1, 2, np.array([-0.7 - 0.1j]))
        db, sign = displacement_report(t, ref)
        assert abs(db[0]) < 1e-12
        assert sign[0] == -1.0

    def test_zero_reference_marked_undefined(self):
        ref = DecisionTree(1, 2, np.array([0.0j]))
        t = DecisionTree(1, 2, np.array([1.0 + 0j]))
        db, sign = displacement_report(t, ref)
        assert np.isnan(db[0]) and sign[0] == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            displacement_report(DecisionTree.zeros(2, 2), DecisionTree.zeros(3, 2))


class TestReceiverSpecFile:
    def _receiver(self):
        c = qam6(3.0)
        nm = NoiseModel(visibility=0.997, efficiency=0.9, dark_counts=1e-3)
        rng = np.random.default_rng(5)
        tree = DecisionTree(2, 3, rng.normal(size=4) + 1j * rng.normal(size=4))
        table = map_table(exact_distribution(tree, c, nm))
        return Receiver(tree, table, c, nm, {"encoding": "qam6", "note": "fixture"})

    def test_round_trip(self, tmp_path):
        rx = self._receiver()
        path = tmp_path / "receiver.json"
        save_receiver(str(path), rx)
        back = load_receiver(str(path))
        np.testing.assert_array_equal(back.tree.nodes, rx.tree.nodes)
        np.testing.assert_array_equal(back.table.guesses, rx.table.guesses)
        np.testing.assert_array_equal(back.constellation.amplitudes, rx.constellation.amplitudes)
        assert back.noise_model == rx.noise_model
        assert back.metadata == rx.metadata

    def test_document_schema(self, tmp_path):
        rx = self._receiver()
        path = tmp_path / "receiver.json"
        save_receiver(str(path), rx)
        doc = json.loads(path.read_text())
        assert set(doc) == {"N", "M", "constellation", "noise_model", "nodes", "table", "metadata"}
        assert doc["N"] == 2 and doc["M"] == 3
        assert set(doc["nodes"][0]) == {"re", "im"}
        assert set(doc["constellation"][0]) == {"label", "re", "im", "prior"}
        assert len(doc["table"]) == 9

    def test_table_labels_validated_on_load(self, tmp_path):
        rx = self._receiver()
        doc = rx.to_dict()
        doc["table"][0] = 17
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_receiver(str(path))

    def test_missing_key_rejected(self):
        doc = self._receiver().to_dict()
        del doc["N"]
        with pytest.raises(ValueError, match="missing keys"):
            Receiver.from_dict(doc)

    def test_oversized_tree_rejected(self):
        doc = self._receiver().to_dict()
        doc["N"] = 40
        with pytest.raises(ValueError, match="leaves"):
            Receiver.from_dict(doc)

    def test_unknown_noise_model_key_rejected(self):
        doc = self._receiver().to_dict()
        doc["noise_model"]["gain"] = 2.0
        with pytest.raises(ValueError, match="unknown noise model keys"):
            Receiver.from_dict(doc)

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda rx: rx.tree.nodes.__setitem__(0, 1e200), "exceeds 1e\\+300"),
            (lambda rx: rx.metadata.update(encoding=3), "encoding must be a string"),
        ],
        ids=["huge_node", "encoding"],
    )
    def test_spec_the_loader_refuses_is_not_saved(self, tmp_path, mutate, message):
        rx = self._receiver()
        mutate(rx)
        with pytest.raises(ValueError, match=message):
            save_receiver(str(tmp_path / "r.json"), rx)
        assert list(tmp_path.iterdir()) == []

    def test_atomic_write_leaves_no_temp(self, tmp_path):
        rx = self._receiver()
        save_receiver(str(tmp_path / "r.json"), rx)
        assert [p.name for p in tmp_path.iterdir()] == ["r.json"]


def test_bpsk_cn_style_table_is_well_formed():
    c = bpsk(1.2)
    tree = DecisionTree(1, 2, np.array([c.amplitudes[0]]))
    table = map_table(exact_distribution(tree, c, NoiseModel()))
    assert table.guesses.tolist() == [0, 1]
