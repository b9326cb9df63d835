import pytest

from modcert.generator import generate_planted
from modcert.scores import score_matrix
from modcert.optimizer import optimize


def planted_groups(net):
    """Recover the planted group of each node from its label."""
    out = []
    for lab in net.node_labels:
        if not lab.startswith("c") or "_n" not in lab:
            raise ValueError(f"label {lab!r} does not carry a planted group")
        out.append(int(lab[1:lab.index("_n")]))
    return out


def test_deterministic_per_seed():
    a = generate_planted(20, 4, 0.9, 0.05, seed=7)
    b = generate_planted(20, 4, 0.9, 0.05, seed=7)
    assert a.edges == b.edges
    c = generate_planted(20, 4, 0.9, 0.05, seed=8)
    assert a.edges != c.edges


def test_parameter_validation():
    with pytest.raises(ValueError):
        generate_planted(20, 4, 0.5, 0.5)  # p_in == p_out
    with pytest.raises(ValueError):
        generate_planted(20, 4, 0.5, 0.7)
    with pytest.raises(ValueError):
        generate_planted(20, 0, 0.9, 0.1)
    with pytest.raises(ValueError):
        generate_planted(1, 1, 0.9, 0.1)


def test_labels_carry_groups():
    net = generate_planted(12, 3, 0.9, 0.0, seed=1)
    groups = planted_groups(net)
    assert set(groups) <= {0, 1, 2}


def test_p_out_zero_gives_isolated_groups():
    net = generate_planted(15, 3, 1.0, 0.0, seed=2)
    groups = planted_groups(net)
    for (a, b), w in net.edges.items():
        assert groups[a] == groups[b]


def test_optimizer_recovers_planted_structure():
    from conftest import adjusted_rand_index

    scores = []
    for seed in range(8):
        net = generate_planted(20, 4, 0.9, 0.05, seed=seed)
        sm = score_matrix(net)
        part = optimize(sm, seed=seed, restarts=4)
        scores.append(adjusted_rand_index(planted_groups(net), list(part.assignment)))
    assert sum(scores) / len(scores) >= 0.9
