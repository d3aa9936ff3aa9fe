"""Scoring a set of label sequences on their prefix trie.

The prefix trie of a set of sequences is the rows of a fresh
`PrefixStates` table, nodes in depth order and first-seen within a depth;
`networks.prefix_trie` lays it out by the same walk, without a table.
`prefix_trie_forward`, on the steps `prefix_trie_steps` reads from the
same lattice columns, must reproduce `rnnt_forward`'s alpha bit for bit,
and on a stack of several models' steps it must equal one call per model
bit for bit. The NLLs from `TransducerModel.prefix_trie_steps` must agree
with the per-sequence oracles: `lattice_nll` within 1e-12 * max(1, |nll|)
(its joint matmuls run over a different number of rows) and
`brute_force_nll` by alignment enumeration. The prediction rows it hands
the joint, stepped one trie depth per block, are bitwise those of
`predict_embed`, from a fresh table or a shared one.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import random_logprob_lattice
from transducer_workbench.errors import ContractViolation, DimensionError
from transducer_workbench import model as model_module
from transducer_workbench.joint import ADDITIVE, MULTIPLICATIVE
from transducer_workbench.lattice import (
    ENUMERATION_CAP,
    brute_force_nll,
    prefix_trie_forward,
    prefix_trie_steps,
    rnnt_forward,
)
from transducer_workbench.model import ModelConfig, init_model
from transducer_workbench.networks import (
    EncoderConfig,
    PredictionConfig,
    PrefixStates,
    init_prediction_params,
    predict_embed,
    prefix_trie,
)
from transducer_workbench.numerics import RandomStream, log_softmax

property_settings = settings(max_examples=100, deadline=None, derandomize=True, database=None)

NUM_LABELS = 3
JOINTS = [ADDITIVE, MULTIPLICATIVE]

label_seqs = st.lists(st.integers(0, NUM_LABELS - 1), max_size=6).map(tuple)
unions = st.lists(label_seqs, min_size=1, max_size=8, unique=True)


def tiny_prediction():
    return init_prediction_params(NUM_LABELS, PredictionConfig(cells=2, embed_dim=2),
                                  RandomStream(0))


def build_prefix_trie(sequences, params=None):
    """(parents, labels, ends) of the prefix trie of `sequences`, read from
    a fresh table of `params` (any prediction network over NUM_LABELS)."""
    table = PrefixStates(tiny_prediction() if params is None else params)
    ends = table.rows(sequences)
    return table.parents, table.labels, ends.tolist()


def path_nodes(parents, node):
    """Nodes from the root down to `node`."""
    path = [node]
    while parents[path[-1]] >= 0:
        path.append(parents[path[-1]])
    return path[::-1]


def trie_model(seed, mode):
    config = ModelConfig(
        num_labels=NUM_LABELS,
        encoder=EncoderConfig(layers=1, cells=4, stacking=1, skip=1, input_dim=3),
        prediction=PredictionConfig(cells=4, embed_dim=3),
        joint_dim=5,
        joint_mode=mode,
    )
    model = init_model(config, RandomStream(seed))
    # The bias starts at zero; a random one makes every term of the joint count.
    model.joint.b[:] = RandomStream(seed + 1).normal(size=model.joint.b.shape)
    return model


def encoder_output(model, seed, T):
    return model.encode_features(RandomStream(seed + 2).normal(size=(T, 3)))


def trie_nlls(model, H, trie):
    """The NLL of each sequence of `trie` under `model`, one model's
    `prefix_trie_forward` on its `prefix_trie_steps` from a fresh table."""
    steps = model.prefix_trie_steps(H, trie, PrefixStates(model.prediction))
    return -prefix_trie_forward(*steps, trie.parents)[-1, trie.ends]


def assert_agrees_with_lattice_nll(model, H, sequences):
    nlls = trie_nlls(model, H, prefix_trie(sequences))
    assert nlls.shape == (len(sequences),)
    for seq, nll in zip(sequences, nlls):
        oracle = model.lattice_nll(H, list(seq))
        assert abs(nll - oracle) <= 1e-12 * max(1.0, abs(oracle)), (seq, nll, oracle)
    return nlls


class TestBuildPrefixTrie:
    """A fresh table filled with `sequences` in one call: node n > 0 extends
    node `parents[n]` (< n) by `labels[n]`, depth by depth, in the order the
    sequences first reach each prefix."""

    def test_nodes_in_depth_order(self):
        parents, labels, ends = build_prefix_trie([(1, 2), (1,), (), (1, 0), (2,)])
        assert parents == [-1, 0, 0, 1, 1]
        assert labels == [-1, 1, 2, 2, 0]
        assert ends == [3, 1, 0, 4, 2]

    def test_no_sequences(self):
        assert build_prefix_trie([]) == ([-1], [-1], [])
        assert prefix_trie([]) == ([], [-1], [-1], [])

    @property_settings
    @given(unions)
    def test_layout_equals_a_fresh_table(self, sequences):
        trie = prefix_trie(sequences)
        assert (trie.parents, trie.labels, trie.ends) == build_prefix_trie(sequences)
        table = PrefixStates(tiny_prediction())
        table.add(trie.blocks)
        assert (table.parents, table.labels) == (trie.parents, trie.labels)
        assert table.rows(trie.prefixes).tolist() == list(range(len(trie.prefixes)))
        assert table.rows(sequences).tolist() == trie.ends

    @property_settings
    @given(unions)
    def test_one_node_per_distinct_prefix(self, sequences):
        parents, labels, ends = build_prefix_trie(sequences)
        prefixes = {seq[:u] for seq in sequences for u in range(len(seq) + 1)}
        assert len(parents) == len(prefixes)
        for seq, end in zip(sequences, ends):
            assert tuple(labels[n] for n in path_nodes(parents, end)[1:]) == seq


def trie_columns(rng, T, N, inf_share=0.0):
    """Random (T, N, K) log-probability columns over NUM_LABELS labels, with
    about `inf_share` of the entries set to -inf (a step of probability 0)."""
    columns = log_softmax(rng.normal(size=(T, N, NUM_LABELS + 1)))
    columns[rng.random(columns.shape) < inf_share] = -np.inf
    return columns


class TestPrefixTrieForward:
    @property_settings
    @given(st.integers(1, 6), st.lists(st.integers(0, 3), max_size=6), st.integers(0, 2**16))
    def test_chain_equals_rnnt_forward_bitwise(self, T, y, seed):
        lattice = random_logprob_lattice(T, len(y), 5, np.random.default_rng(seed))
        parents = [-1] + list(range(len(y)))
        alpha = prefix_trie_forward(*prefix_trie_steps(lattice, parents, [-1, *y]), parents)
        nll, oracle = rnnt_forward(lattice, y)
        assert np.array_equal(alpha, oracle)
        assert -alpha[T, -1] == nll

    @property_settings
    @given(st.integers(1, 6), unions, st.integers(0, 2**16))
    def test_paths_equal_rnnt_forward_bitwise(self, T, sequences, seed):
        parents, labels, ends = build_prefix_trie(sequences)
        columns = trie_columns(np.random.default_rng(seed), T, len(parents))
        alpha = prefix_trie_forward(*prefix_trie_steps(columns, parents, labels), parents)
        for seq, end in zip(sequences, ends):
            path = path_nodes(parents, end)
            nll, oracle = rnnt_forward(columns[:, path, :], list(seq))
            assert np.array_equal(alpha[:, path], oracle)
            assert -alpha[T, end] == nll

    @property_settings
    @given(st.integers(1, 6), unions, st.integers(0, 2**16), st.sampled_from([0.0, 0.2, 0.5]))
    @example(1, [(), (0,), (0, 1)], 3, 1.0)  # every step -inf
    def test_models_stacked_equal_one_call_each_bitwise(self, T, sequences, seed, inf_share):
        # Two models' steps on one trie, stacked on a leading axis, give
        # each model's own alpha, and so `rnnt_forward`'s, with `==`.
        parents, labels, ends = build_prefix_trie(sequences)
        rng = np.random.default_rng(seed)
        columns = [trie_columns(rng, T, len(parents), inf_share) for _ in range(2)]
        steps = [prefix_trie_steps(c, parents, labels) for c in columns]
        blank, label = (np.stack(arrays) for arrays in zip(*steps))
        stacked = prefix_trie_forward(blank, label, parents)
        assert stacked.shape == (2, T + 1, len(parents))
        for alpha, (blank_m, label_m), columns_m in zip(stacked, steps, columns):
            assert np.array_equal(alpha, prefix_trie_forward(blank_m, label_m, parents))
            for seq, end in zip(sequences, ends):
                path = path_nodes(parents, end)
                nll, oracle = rnnt_forward(columns_m[:, path, :], list(seq))
                assert np.array_equal(alpha[:, path], oracle)
                assert -alpha[T, end] == nll

    def test_rejects_malformed_tries(self):
        columns = log_softmax(np.zeros((2, 3, 3)))
        steps = prefix_trie_steps(columns, [-1, 0, 1], [-1, 0, 1])
        with pytest.raises(ContractViolation, match="root"):
            prefix_trie_forward(*steps, [0, 0, 1])
        with pytest.raises(ContractViolation, match="precede"):
            prefix_trie_forward(*steps, [-1, 2, 0])
        unordered = prefix_trie_steps(log_softmax(np.zeros((2, 4, 3))), [-1, 0, 1, 0],
                                      [-1, 0, 1, 1])
        with pytest.raises(ContractViolation, match="depth order"):
            prefix_trie_forward(*unordered, [-1, 0, 1, 0])
        with pytest.raises(DimensionError, match="out of range"):
            prefix_trie_steps(columns, [-1, 0, 1], [-1, 0, 2])
        with pytest.raises(DimensionError, match="one parent"):
            prefix_trie_steps(columns, [-1, 0], [-1, 0])
        with pytest.raises(DimensionError, match="one parent"):
            prefix_trie_forward(*steps, [-1, 0])
        with pytest.raises(DimensionError, match="one shape"):
            prefix_trie_forward(steps[0], steps[1][:, :2], [-1, 0])
        with pytest.raises(DimensionError, match="T >= 1"):
            prefix_trie_forward(np.zeros((0, 1)), np.zeros((0, 1)), [-1])


class TestPrefixTrieNlls:
    @pytest.mark.parametrize("mode", JOINTS)
    @property_settings
    @given(st.integers(1, 6), unions, st.integers(0, 2**16))
    def test_agrees_with_lattice_nll(self, mode, T, sequences, seed):
        model = trie_model(seed, mode)
        assert_agrees_with_lattice_nll(model, encoder_output(model, seed, T), sequences)

    @pytest.mark.parametrize("mode", JOINTS)
    @property_settings
    @given(st.integers(1, 6), unions, st.integers(0, 2**16))
    @example(1, [(), (2,), (2, 0), (2, 0, 1), (1,)], 5)  # T = 1, empty, nested prefixes
    @example(3, [()], 6)
    def test_prediction_rows_equal_predict_embed_bitwise(
        self, mode, T, sequences, seed
    ):
        model = trie_model(seed, mode)
        H = encoder_output(model, seed, T)
        captured, joint = [], model_module.joint_forward_lattice

        def capture(H, G, params):
            captured.append(G.copy())
            return joint(H, G, params)

        with mock.patch.object(model_module, "joint_forward_lattice", capture):
            trie_nlls(model, H, prefix_trie(sequences))
        [G] = captured
        parents, _, ends = build_prefix_trie(sequences, model.prediction)
        assert G.shape == (len(parents), model.prediction.layers[-1].hidden)
        for seq, end in zip(sequences, ends):
            rows, _ = predict_embed(seq, model.prediction)
            assert np.array_equal(G[path_nodes(parents, end)], rows), seq

    @pytest.mark.parametrize("mode", JOINTS)
    @property_settings
    @given(st.integers(1, 6), unions, unions, st.integers(0, 2**16))
    def test_shared_table_gives_fresh_table_steps_bitwise(
        self, mode, T, earlier, sequences, seed
    ):
        # A table that earlier tries filled hands the joint the same rows
        # in the same order, so the steps equal a fresh table's with `==`;
        # it steps only the prefixes it lacks.
        model = trie_model(seed, mode)
        H = encoder_output(model, seed, T)
        trie = prefix_trie(sequences)
        fresh = model.prefix_trie_steps(H, trie, PrefixStates(model.prediction))
        table = PrefixStates(model.prediction)
        model.prefix_trie_steps(H, prefix_trie(earlier), table)
        known = set(table.index)
        shared = model.prefix_trie_steps(H, trie, table)
        assert all(np.array_equal(a, b) for a, b in zip(shared, fresh))
        assert set(table.index) == known | set(trie.prefixes)
        assert len(table.parents) == len(table.index)

    def test_table_of_another_network_rejected(self):
        model = trie_model(10, ADDITIVE)
        other = PrefixStates(trie_model(11, ADDITIVE).prediction)
        with pytest.raises(ContractViolation, match="another network"):
            model.prefix_trie_steps(encoder_output(model, 10, 3), prefix_trie([(0,)]), other)

    @pytest.mark.parametrize("mode", JOINTS)
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 5), st.lists(label_seqs.map(lambda s: s[:5]), min_size=1, max_size=4,
                                        unique=True), st.integers(0, 2**16))
    def test_agrees_with_enumeration(self, mode, T, sequences, seed):
        model = trie_model(seed, mode)
        H = encoder_output(model, seed, T)
        nlls = trie_nlls(model, H, prefix_trie(sequences))
        for seq, nll in zip(sequences, nlls):
            assert T + len(seq) <= ENUMERATION_CAP
            oracle = brute_force_nll(model.logprob_lattice(H, list(seq)), list(seq))
            assert abs(nll - oracle) <= 1e-10

    @pytest.mark.parametrize("mode", JOINTS)
    @pytest.mark.parametrize("T, sequences", [
        (3, [()]),
        (3, [(0, 1, 2)]),
        (4, [(0, 1), (0, 1, 1, 2), (0,), ()]),
        (1, [(2, 2, 0), (2,), (1,), ()]),
    ], ids=["empty", "one-hypothesis", "prefixes", "T=1"])
    def test_edge_cases(self, mode, T, sequences):
        model = trie_model(7, mode)
        assert_agrees_with_lattice_nll(model, encoder_output(model, 7, T), sequences)

    def test_no_sequences(self):
        model = trie_model(8, ADDITIVE)
        H = encoder_output(model, 8, 3)
        assert trie_nlls(model, H, prefix_trie([])).shape == (0,)

    def test_out_of_vocabulary_label_rejected(self):
        model = trie_model(9, ADDITIVE)
        H = encoder_output(model, 9, 3)
        with pytest.raises(ContractViolation, match="outside vocabulary"):
            model.prefix_trie_steps(H, prefix_trie([(0, NUM_LABELS)]),
                                    PrefixStates(model.prediction))
