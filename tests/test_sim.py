"""Simulation harness: determinism, adversaries, sweeps, transcripts."""

import json
from dataclasses import asdict
from fractions import Fraction
from itertools import product

import pytest

import xstpir as xp
from xstpir import sim
from xstpir.sim import (
    HONEST,
    AdversaryConfig,
    derive_seed,
    params_grid,
    placements,
    run_session,
    sweep,
)


def test_session_determinism():
    p = xp.derive_params(4, 2, 1, 1, num_messages=3)
    a = run_session(p, HONEST, theta=2, seed=7)
    b = run_session(p, HONEST, theta=2, seed=7)
    assert a.to_json() == b.to_json()
    c = run_session(p, HONEST, theta=2, seed=8)
    assert a.to_json() != c.to_json()


def test_session_outcome_and_rates():
    p = xp.derive_params(4, 2, 1, 1, num_messages=3)
    t = run_session(p, HONEST, theta=1, seed=0)
    assert t.ok and t.decoded == t.messages[0]
    assert t.rates.downloaded_symbols == 8 and t.rates.retrieved_symbols == 2
    assert str(t.rates.realized_rate) == "1/4" and t.rates.matches_achievable


def test_realized_rate_counts_delivered_symbols():
    """Every server answers though U = 1 is allowed: 6 symbols, not (N-U)*K_c = 5."""
    p = xp.derive_params(6, 1, 1, 1, max_unresponsive=1)
    t = run_session(p, HONEST, theta=1, seed=0, strict=False)
    assert t.ok and all(a is not None for a in t.answers)
    assert t.rates.downloaded_symbols == 6 and t.rates.retrieved_symbols == p.message_len == 3
    assert t.rates.realized_rate == Fraction(1, 2) != t.rates.achievable_rate
    assert not t.rates.matches_achievable


def test_over_budget_silence_gives_failure_transcript():
    """More than U silent servers is a decoding failure, not an exception."""
    p = xp.derive_params(6, 1, 1, 1, max_unresponsive=1)
    for silent in ((1, 2), tuple(range(1, 7))):
        t = run_session(p, AdversaryConfig(silent), theta=1, seed=0, strict=False)
        assert not t.ok and t.decoded is None
        assert t.failure.startswith("decoding failure")
        assert json.loads(t.to_json())["ok"] is False
    assert t.rates is None  # nobody answered: no realized rate


def test_role_seeds_are_split_and_stable():
    assert derive_seed(7, "messages") == derive_seed(7, "messages")
    assert derive_seed(7, "messages") != derive_seed(7, "storage-noise")
    assert derive_seed(7, "messages") != derive_seed(8, "messages")
    p = xp.derive_params(4, 2, 1, 1, num_messages=2)
    t = run_session(p, HONEST, 1, seed=7)
    assert set(t.role_seeds) == {"messages", "storage-noise", "query-noise"}


@pytest.mark.parametrize("x, t, b", list(product((0, 1), repeat=3)))
def test_a_session_seeds_a_stream_only_for_a_role_that_draws(monkeypatch, x, t, b):
    """1 + [X > 0] + [T > 0] + [a liar is present] streams, in role order;
    ``role_seeds`` still names all three roles, and an unseeded noise role
    holds what a draw of size 0 returns."""
    seeded = []

    class CountingRandom(sim.Random):
        def __init__(self, seed):
            seeded.append(seed)
            super().__init__(seed)

    monkeypatch.setattr(sim, "Random", CountingRandom)
    p = xp.derive_params(7, 2, x, t, 1, b, num_messages=2)
    liars = [(), (3,)] if b else [()]
    for byzantine in liars:
        adv = AdversaryConfig(unresponsive=(5,), byzantine=byzantine, seed=11)
        seeded.clear()
        tr = run_session(p, adv, theta=2, seed=4)
        assert tr.ok
        roles = tr.role_seeds
        assert list(roles) == ["messages", "storage-noise", "query-noise"]
        assert seeded == [
            roles["messages"],
            *[roles["storage-noise"]] * (x > 0),
            *[roles["query-noise"]] * (t > 0),
            *[adv.seed] * bool(byzantine),
        ]
    f = xp.default_field(p)
    if not x:
        assert xp.StorageNoise(f, ()) == xp.StorageNoise.random(f, p, sim.Random(0))
    if not t:
        assert xp.QueryNoise(f, ()) == xp.QueryNoise.random(f, p, sim.Random(0))


def test_adversary_config_validation():
    p = xp.derive_params(8, 2, 1, 1, 1, 1, num_messages=2)
    with pytest.raises(ValueError):
        AdversaryConfig((3,), (3,))  # overlap
    with pytest.raises(ValueError):
        AdversaryConfig((), (), policy="flip-bits")
    AdversaryConfig((3,), (5,)).validate(p)
    with pytest.raises(ValueError):
        AdversaryConfig((), (5,)).validate(p)  # |U| != U
    with pytest.raises(ValueError):
        AdversaryConfig((3,), (5, 6)).validate(p)  # |B| > B
    with pytest.raises(ValueError):
        AdversaryConfig((9,), ()).validate(p)  # out of range
    AdversaryConfig((3,), (5, 6)).validate(p, strict=False)


def test_adversary_indices_enter_through_index():
    """``AdversaryConfig((1.0,), ())`` used to run, and its transcript printed
    ``"unresponsive": [1.0]``; a bool is stored as 0 or 1."""
    for kwargs in (
        {"unresponsive": (1.0,)}, {"byzantine": (2.0,)}, {"byzantine": ("2",)},
        {"constant_value": 3.0},
    ):
        with pytest.raises(TypeError):
            AdversaryConfig(**kwargs)
    p = xp.derive_params(8, 2, 1, 1, 1, 1, num_messages=2)
    adv = AdversaryConfig((True,), (6,), "constant", constant_value=True)
    assert adv == AdversaryConfig((1,), (6,), "constant", constant_value=1)
    assert all(type(n) is int for n in (*adv.unresponsive, adv.constant_value))
    doc = json.loads(run_session(p, adv, 1, 4).to_json())
    assert doc["adversary"]["unresponsive"] == [1] and doc["adversary"]["constant_value"] == 1
    assert '"unresponsive": [1]' in json.dumps(doc["adversary"])


def test_budget_guard_in_run_session():
    p = xp.derive_params(8, 2, 1, 1, 1, 1, num_messages=2)
    with pytest.raises(ValueError):
        run_session(p, AdversaryConfig((3,), (5, 6)), 1, 0)


def test_within_budget_recovery_all_policies():
    p = xp.derive_params(8, 2, 1, 1, 1, 1, num_messages=2)
    for policy in ("random", "constant", "adversarial-replay"):
        t = run_session(p, AdversaryConfig((2,), (6,), policy, seed=3), 2, 11)
        assert t.ok, policy
        assert t.answers[1] is None  # server 2 silent


def test_over_budget_yields_structured_failure():
    p = xp.derive_params(8, 2, 1, 1, 1, 1, num_messages=2)
    field = xp.PrimeField(101)
    t = run_session(
        p, AdversaryConfig((1,), (4, 7), "random", seed=5), 1, 9,
        field=field, strict=False,
    )
    assert not t.ok
    assert t.failure and "decoding failure" in t.failure
    assert t.decoded is None


def test_honest_server_purity():
    """Answers of honest servers recompute exactly from transcript storage+queries."""
    p = xp.derive_params(8, 2, 1, 1, 1, 1, num_messages=2)
    adv = AdversaryConfig((3,), (6,), "random", seed=2)
    t = run_session(p, adv, 1, 4)
    for n in range(1, p.num_servers + 1):
        if n in adv.unresponsive:
            assert t.answers[n - 1] is None
            continue
        storage = xp.ServerStorage(n, t.storages[n - 1])
        bundle = xp.QueryBundle(n, t.queries[n - 1])
        recomputed = xp.server_answer(storage, bundle).scalars
        if n in adv.byzantine:
            assert t.answers[n - 1] != recomputed  # random policy: real errors
        else:
            assert t.answers[n - 1] == recomputed


def test_replay_policy_substitutes_an_honest_answer():
    p = xp.derive_params(8, 2, 1, 1, 1, 1, num_messages=2)
    adv = AdversaryConfig((3,), (6,), "adversarial-replay", seed=0)
    t = run_session(p, adv, 1, 4)
    # next honest server after 6 in cyclic order is 7
    assert t.answers[5] == t.answers[6]
    assert t.ok


def test_constant_policy():
    p = xp.derive_params(8, 2, 1, 1, 1, 1, num_messages=2)
    adv = AdversaryConfig((3,), (6,), "constant", seed=0, constant_value=0)
    t = run_session(p, adv, 1, 4)
    assert t.answers[5] == (0, 0)
    assert t.ok


def test_field_override_validated():
    p = xp.derive_params(4, 2, 1, 1, num_messages=2)
    t = run_session(p, HONEST, 1, 0, field=xp.PrimeField(13))
    assert t.ok and t.q == 13
    with pytest.raises(ValueError):
        run_session(p, HONEST, 1, 0, field=xp.PrimeField(3))  # q < L + N


def test_transcript_json_round_trip():
    p = xp.derive_params(4, 2, 1, 1, num_messages=2)
    t = run_session(p, HONEST, 2, 5)
    doc = json.loads(t.to_json())
    assert doc["params"]["N"] == 4 and doc["theta"] == 2
    assert doc["decoded"] == list(t.messages[1])
    assert doc["rate"]["realized_rate"] == "1/4"
    assert doc["answers"][0] == list(t.answers[0])


def test_placements_enumeration():
    p = xp.derive_params(6, 1, 1, 1, 1, 1, num_messages=2)
    all_pairs = list(placements(p))
    assert len(all_pairs) == 6 * 5
    assert all(set(u) & set(b) == set() for u, b in all_pairs)


def test_sweep_honest_grid():
    grid = params_grid([4, 5], [1, 2], [0, 1], [1], [0, 1], [0], [2])
    s = sweep(grid, "honest", seeds=(0, 1))
    assert s.all_passed and s.total_sessions == len(grid) * 2 * 2
    assert [c.adversary_label for c in s.cells] == ["honest"] * len(grid)
    csv = s.to_csv()
    assert csv.splitlines()[0] == "params,adversary,sessions,passes,failures"


def test_sweep_placements_mode():
    p = xp.derive_params(6, 1, 1, 1, 1, 1, num_messages=2)
    s = sweep([p], "placements", policies=("random", "constant"), draws=2, thetas=(1,))
    assert s.all_passed
    assert len(s.cells) == 30 * 2  # placements x policies
    assert s.total_sessions == 30 * 2 * 2


@pytest.mark.parametrize(
    "kwargs",
    [dict(seeds=()), dict(thetas=()), dict(draws=0), dict(policies=()), dict(policies=("bogus",))],
)
@pytest.mark.parametrize("mode", ["honest", "placements"])
def test_sweep_refuses_to_run_nothing(mode, kwargs):
    """No seed, theta, policy or draw, or an unknown policy, is an error, not a pass of 0 sessions."""
    p = xp.derive_params(6, 1, 1, 1, 1, 1, num_messages=2)
    with pytest.raises(ValueError):
        sweep([p], mode, **kwargs)


def test_sweep_empty_grid():
    s = sweep([], "honest")
    assert s.cells == () and s.all_passed and s.total_sessions == 0
    assert s.to_csv() == "params,adversary,sessions,passes,failures\n"


def test_params_grid_matches_layer_formula():
    """The grid keeps exactly the tuples with U < N and L >= 1, minus the corner.

    The ranges reach X, T > N, U >= N and N = 0.
    """
    ranges = (range(10), range(1, 4), range(12), range(12), range(11), range(3), range(1, 3))
    want = [
        (n, kc, x, t, u, b, k, layers, layers * kc)
        for n, kc, x, t, u, b in product(*ranges[:6])
        if u < n and not (kc == 1 and x == t == b == 0)
        for layers in [(n - u) - (kc + x + t + 2 * b - 1)]
        if layers >= 1
        for k in ranges[6]
    ]
    got = [tuple(asdict(p).values()) for p in params_grid(*ranges)]
    assert got == want and len(got) == 3032


def test_params_grid_skips_infeasible_and_pure_cauchy_corner():
    grid = params_grid([4], [1], [0], [0, 1], [0], [0], [2])
    labels = {(p.security, p.privacy) for p in grid}
    assert (0, 0) not in labels  # pure-Cauchy corner excluded
    assert (0, 1) in labels
    assert all(p.layers >= 1 for p in grid)
