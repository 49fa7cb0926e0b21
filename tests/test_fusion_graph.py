"""The one BiFPN graph: the weight order node_arity gives and the order the forward pass runs."""

import numpy as np

from maskbench.fusion import FeatureLevel, FusionWeights, _bifpn_forward, node_arity


def test_node_arity_lists_td_nodes_then_out_nodes_bottom_up():
    arity = node_arity([5, 3, 6, 4])
    assert list(arity.items()) == [
        ("td3", 2), ("td4", 2), ("td5", 2), ("out3", 2), ("out4", 3), ("out5", 3), ("out6", 2)]


def test_forward_runs_td_nodes_top_down_then_out_nodes_bottom_up():
    levels = [3, 4, 5]
    m_in = {level: FeatureLevel(level, np.ones((1, 2 ** (6 - level), 2 ** (6 - level))))
            for level in levels}
    _, trace = _bifpn_forward(m_in, FusionWeights.ones(levels), None)
    assert [(r.name, r.level, r.sources) for r in trace] == [
        ("td4", 4, [("in4", 4), ("in5", 5)]),
        ("td3", 3, [("in3", 3), ("td4", 4)]),
        ("out3", 3, [("in3", 3), ("td3", 3)]),
        ("out4", 4, [("in4", 4), ("td4", 4), ("out3", 3)]),
        ("out5", 5, [("in5", 5), ("out4", 4)]),
    ]
