import random

import pytest

import zqforce.forcing
from zqforce import (
    Certificate,
    ForceMove,
    ScopeError,
    TokenMove,
    brute_force_Z,
    check_certificate,
    closure_with_forces,
)

from helpers import (
    BOWTIE,
    clique,
    cycle,
    naive_window_closure,
    naive_window_forces,
    path,
    random_connected_graph,
)


# The game tests' reference solver reads rule 2 off naive_window_forces; with
# the whole graph as the window it lists the applicable forces.


def test_applicable_forces_path_endpoint():
    assert naive_window_forces(path(3), {0}, range(3)) == [(0, 1)]


def test_applicable_forces_triangle_one_filled():
    assert naive_window_forces(clique(3), {0}, range(3)) == []


def test_applicable_forces_triangle_two_filled():
    assert naive_window_forces(clique(3), {0, 1}, range(3)) == [(0, 2), (1, 2)]


def test_closure_path_fills_from_endpoint():
    assert closure_with_forces(path(5), {0})[0] == frozenset(range(5))


def test_closure_cycle_single_token_is_stuck():
    assert closure_with_forces(cycle(5), {0})[0] == frozenset({0})


def test_closure_bowtie_partial():
    assert closure_with_forces(BOWTIE, {0, 1})[0] == frozenset({0, 1, 2})


def test_closure_force_sequence_is_legal_replay():
    g = path(6)
    closed, forces = closure_with_forces(g, {0})
    assert closed == frozenset(range(6))
    filled = {0}
    for f in forces:
        unfilled = [w for w in g.adjacency[f.source] if w not in filled]
        assert f.source in filled and unfilled == [f.target]
        filled.add(f.target)


def test_closure_properties_on_random_graphs():
    # extensive, monotone, idempotent
    rng = random.Random(21)
    for _ in range(60):
        n = rng.randint(2, 12)
        g = random_connected_graph(n, rng.random() * 0.5, rng)
        a = frozenset(v for v in range(n) if rng.random() < 0.3)
        b = a | frozenset(v for v in range(n) if rng.random() < 0.2)
        ca, cb = closure_with_forces(g, a)[0], closure_with_forces(g, b)[0]
        assert a <= ca
        assert ca <= cb
        assert closure_with_forces(g, ca)[0] == ca
        assert ca == naive_window_closure(g, a, range(n))


def _zero_forcing(g, s):
    return closure_with_forces(g, s)[0] == frozenset(range(g.n))


def test_is_zero_forcing_set_examples():
    assert _zero_forcing(cycle(5), {0, 1})
    assert not _zero_forcing(cycle(5), {0})
    assert _zero_forcing(BOWTIE, {0, 1, 3})


def test_brute_force_paths_and_cliques():
    for n in range(2, 8):
        assert brute_force_Z(path(n))[0] == 1
        assert brute_force_Z(clique(n))[0] == n - 1


def test_brute_force_bowtie():
    value, witness = brute_force_Z(BOWTIE)
    assert value == 3
    assert _zero_forcing(BOWTIE, witness)
    assert len(witness) == 3


def test_brute_force_witness_is_lex_smallest():
    assert brute_force_Z(path(3)) == (1, frozenset({0}))


def test_brute_force_cap_refusal(monkeypatch):
    with pytest.raises(ScopeError):
        brute_force_Z(path(21))
    monkeypatch.setattr(zqforce.forcing, "BRUTE_FORCE_CAP", 25)
    assert brute_force_Z(path(21))[0] == 1


def test_applicable_forces_replay_as_legal_certificate_steps():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(2, 9)
        g = random_connected_graph(n, rng.random() * 0.5, rng)
        filled = frozenset(v for v in range(n) if rng.random() < 0.4)
        for u in sorted(filled):
            unfilled = [w for w in g.adjacency[u] if w not in filled]
            if len(unfilled) != 1:
                continue
            t = unfilled[0]
            # pad with tokens and closure forces to a full fill, so only the
            # probed force's own legality can make the check fail
            extra = sorted(set(range(n)) - closure_with_forces(g, filled | {t})[0])
            trace = [TokenMove(v) for v in sorted(filled)]
            trace.append(ForceMove(u, t))
            trace.extend(TokenMove(v) for v in extra)
            _, tail = closure_with_forces(g, filled | {t} | set(extra))
            trace.extend(tail)
            cert = Certificate(tokens=frozenset(filled) | frozenset(extra), trace=tuple(trace))
            assert check_certificate(g, None, cert)
