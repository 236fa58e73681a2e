"""Property: ``decode`` recovers W_theta exactly within the (U, B) budget."""

from random import Random

from hypothesis import assume, given, settings, strategies as st

import xstpir as xp
from xstpir.field import PrimeField


@st.composite
def sessions(draw):
    """A small tuple (N <= 9), a field, and a delivery within its budget."""
    kc = draw(st.integers(1, 2))
    x, t, u = (draw(st.integers(0, 1)) for _ in range(3))
    b = draw(st.integers(0, 2))
    assume(not (kc == 1 and x == t == b == 0))  # the rejected square pure-Cauchy corner
    span = u + kc + x + t + 2 * b - 1  # N - L
    n = span + draw(st.integers(1, 9 - span))
    p = xp.derive_params(n, kc, x, t, u, b, draw(st.integers(1, 2)))
    field = xp.default_field(p) if draw(st.booleans()) else PrimeField(2**31 - 1)
    return p, field, draw(st.integers(1, p.num_messages)), draw(st.randoms(use_true_random=False))


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(sessions(), st.integers(0, 2**32))
def test_decode_recovers_within_budget(session, seed):
    """Silent servers, malformed bundles while slack remains, and up to B liars."""
    p, field, theta, rng = session
    q = field.q
    pts = xp.default_points(p, field)
    setup = Random(seed)
    msgs = xp.MessageSet.random(field, p, setup)
    storages = xp.encode_storage(msgs, xp.StorageNoise.random(field, p, setup), pts, p)
    queries = xp.gen_queries(theta, xp.QueryNoise.random(field, p, setup), pts, p)
    answers = {s.server: xp.server_answer(s, qb) for s, qb in zip(storages, queries)}

    servers = rng.sample(sorted(answers), p.num_servers)
    silent = rng.randrange(p.max_unresponsive + 1)
    for n in servers[:silent]:
        del answers[n]
    if silent < p.max_unresponsive and rng.random() < 0.5:
        n = servers[silent]
        scalars = answers[n].scalars
        malformed = (  # the wrong length, a scalar >= q, or a negative one
            scalars + (1,), scalars[1:],
            (q + rng.randrange(q), *scalars[1:]), (-1 - rng.randrange(q), *scalars[1:]),
        )
        answers[n] = xp.AnswerBundle(n, rng.choice(malformed))
        silent += 1
    for n in servers[silent:silent + rng.randrange(p.max_byzantine + 1)]:
        answers[n] = xp.AnswerBundle(
            n, tuple((v + rng.randrange(1, q)) % q for v in answers[n].scalars)
        )
    assert xp.decode(answers, pts, p) == list(msgs.messages[theta - 1])
