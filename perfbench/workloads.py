"""The four benchmark workloads: inputs from a seed, one timed op, and its checks.

Every workload is a closed loop with one client.  ``setup`` builds what all
ops share (timed as ``setup_s``), ``inputs`` draws the next op's inputs from
the seed outside the timed span, ``op`` is the timed call into ``xstpir``, and
``check`` verifies the op's output outside the timed span, returning a reason
string when it is wrong.  Calls into ``xstpir`` go through module attributes
(``protocol.encode_storage``, not a bound name) so that a traced run sees them.
"""

from __future__ import annotations

from dataclasses import asdict
from fractions import Fraction
from itertools import combinations
from random import Random

from xstpir import audit, protocol, psdmm, sim
from xstpir.field import PrimeField
from xstpir.linalg import FieldMatrix

Q31 = 2**31 - 1


def _expected_rate(p: protocol.ProtocolParams) -> Fraction:
    """The paper's rate 1 - (K_c+X+T+2B-1)/(N-U), written out independently."""
    return 1 - Fraction(
        p.code_dim + p.security + p.privacy + 2 * p.max_byzantine - 1,
        p.num_servers - p.max_unresponsive,
    )


def _rate_problem(p: protocol.ProtocolParams, downloaded: int) -> str | None:
    want = (p.num_servers - p.max_unresponsive) * p.code_dim
    if downloaded != want:
        return f"downloaded {downloaded} symbols, expected (N-U)*K_c = {want}"
    if Fraction(p.message_len, downloaded) != _expected_rate(p):
        return f"realized rate {Fraction(p.message_len, downloaded)} != {_expected_rate(p)}"
    return None


def _session_problem(tr, over_budget: bool) -> str | None:
    """Check one ``sim.run_session`` transcript."""
    p = tr.params
    downloaded = sum(len(a) for a in tr.answers if a is not None)
    problem = _rate_problem(p, downloaded)
    if problem is None and tr.rates.realized_rate != Fraction(p.message_len, downloaded):
        problem = f"transcript rate {tr.rates.realized_rate} disagrees with its download"
    if problem is not None:
        return problem
    if over_budget:
        if tr.decoded is not None or not (tr.failure or "").startswith("decoding failure"):
            return f"over-budget session did not report DecodingFailure: {tr.failure!r}"
        return None
    if not tr.ok or tr.decoded != tr.messages[tr.theta - 1]:
        return f"decoded != W_theta ({tr.failure!r})"
    return None


class Bulk:
    """Private retrieval of one message from a K=2048 library, N=10 servers."""

    name = "bulk"

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = Random(f"{seed}/ops")

    def describe(self) -> dict:
        return {"q": self.field.q, "params": asdict(self.params)}

    def setup(self) -> None:
        rng = Random(f"{self.seed}/setup")
        self.field = PrimeField(Q31)
        self.params = protocol.derive_params(10, 2, 1, 1, 0, 0, 2048)
        self.points = protocol.default_points(self.params, self.field)
        self.messages = protocol.MessageSet.random(self.field, self.params, rng)
        noise = protocol.StorageNoise.random(self.field, self.params, rng)
        self.storages = protocol.encode_storage(self.messages, noise, self.points, self.params)

    def inputs(self, i: int):
        return self.rng.randrange(1, self.params.num_messages + 1), Random(self.rng.getrandbits(64))

    def op(self, inp):
        theta, noise_rng = inp
        noise = protocol.QueryNoise.random(self.field, self.params, noise_rng)
        queries = protocol.gen_queries(theta, noise, self.points, self.params)
        answers = [protocol.server_answer(s, qb) for s, qb in zip(self.storages, queries)]
        return answers, protocol.decode(answers, self.points, self.params)

    def check(self, inp, out) -> str | None:
        theta = inp[0]
        answers, decoded = out
        if decoded != list(self.messages.messages[theta - 1]):
            return "decoded != W_theta"
        return _rate_problem(self.params, sum(len(a.scalars) for a in answers))


class Byzantine:
    """Robust sessions at N=14, U=1, B=3; one op in 8 has 4 liars (over budget).

    The silent server is drawn once per run, so every session decodes with one
    decoding matrix: its subset-inverse cache fills during the first ops (by
    the first over-budget op at the latest) and the rest of the run measures
    warm decoding, whatever the seed.  The consensus decoder's cost is set by
    where the liars sit, so within-budget ops deal the liar sets from a
    seed-shuffled deck of all C(13, 3) of them: every run sees each placement
    once before any repeats, and its median does not hang on a lucky draw.
    """

    name = "byzantine"
    servers = 14

    def __init__(self, seed: int):
        self.rng = Random(f"{seed}/ops")
        self.silent = Random(f"{seed}/silent").randrange(1, self.servers + 1)
        self.others = [n for n in range(1, self.servers + 1) if n != self.silent]
        self.deck: list[tuple[int, ...]] = []

    def describe(self) -> dict:
        return {
            "q": self.field.q,
            "params": asdict(self.params),
            "over_budget": "op i with i % 8 == 7: 4 random-policy liars, strict=False",
            "silent_server": self.silent,
        }

    def setup(self) -> None:
        self.field = PrimeField(Q31)
        self.params = protocol.derive_params(self.servers, 1, 1, 1, 1, 3, 32)

    def inputs(self, i: int):
        rng = self.rng
        over = i % 8 == 7
        if over:
            liars = rng.sample(self.others, 4)
        else:
            if not self.deck:
                self.deck = list(combinations(self.others, 3))
                rng.shuffle(self.deck)
            liars = self.deck.pop()
        policy = "random" if over else sim.CORRUPTION_POLICIES[i % 3]
        adv = sim.AdversaryConfig(
            (self.silent,), tuple(liars), policy,
            seed=rng.getrandbits(32), constant_value=rng.randrange(Q31),
        )
        theta = rng.randrange(1, self.params.num_messages + 1)
        return over, adv, theta, rng.getrandbits(63)

    def op(self, inp):
        over, adv, theta, seed = inp
        return sim.run_session(self.params, adv, theta, seed, self.field, strict=not over)

    def check(self, inp, out) -> str | None:
        return _session_problem(out, over_budget=inp[0])


# Acceptance criterion 6: (target, params, q, colluding, expected PASS)
AUDIT_BATTERY = (
    [("storage", (4, 2, 1, 1, 0, 0, 2), 5, (n,), True) for n in range(1, 5)]
    + [("storage", (4, 2, 1, 1, 0, 0, 2), 5, (1, 2, 3), False)]
    + [("privacy", (3, 1, 1, 1, 0, 0, 2), 5, (n,), True) for n in range(1, 4)]
    + [("privacy", (3, 1, 0, 2, 0, 0, 2), 5, pair, True) for pair in ((1, 2), (1, 3), (2, 3))]
    + [("privacy", (4, 1, 1, 1, 0, 0, 2), 7, (1, 3), False)]
)


class Desk:
    """Every feasible desk-scale tuple and theta, adversary at full budget; then audits.

    One op is one pass over the whole schedule: 870 ``sim.run_session`` calls
    of about a millisecond each.  Timed one session at a time, the slowest
    sessions of a run are the ones the host happened to stall, not the
    program's largest tuples; a pass averages over that.
    """

    name = "desk"

    def __init__(self, seed: int):
        self.rng = Random(f"{seed}/ops")

    def describe(self) -> dict:
        return {
            "q": "smallest prime >= L+N per tuple; audits at q=5 and q=7",
            "params": "params_grid(N 1..8, Kc 1..2, X 0..1, T 0..1, U 0..1, B 0..1, K 1..3)",
            "sessions_per_op": len(self.schedule),
            "audit_verdicts": len(AUDIT_BATTERY),
        }

    def setup(self) -> None:
        grid = sim.params_grid(
            range(1, 9), (1, 2), (0, 1), (0, 1), (0, 1), (0, 1), (1, 2, 3)
        )
        self.schedule = [(p, theta) for p in grid for theta in range(1, p.num_messages + 1)]

    def inputs(self, i: int):
        rng = self.rng
        sessions = []
        for j, (p, theta) in enumerate(self.schedule):
            u, b = p.max_unresponsive, p.max_byzantine
            picked = rng.sample(range(1, p.num_servers + 1), u + b)
            adv = sim.AdversaryConfig(
                tuple(picked[:u]), tuple(picked[u:]), sim.CORRUPTION_POLICIES[(i + j) % 3],
                seed=rng.getrandbits(32), constant_value=rng.getrandbits(31),
            )
            sessions.append((p, adv, theta, rng.getrandbits(63)))
        return sessions

    def op(self, inp):
        return [sim.run_session(p, adv, theta, seed) for p, adv, theta, seed in inp]

    def check(self, inp, out) -> str | None:
        for (p, adv, theta, seed), tr in zip(inp, out):
            problem = _session_problem(tr, over_budget=False)
            if problem is not None:
                return f"session N={p.num_servers} K={p.num_messages} theta={theta} seed={seed}: {problem}"
        return None

    @staticmethod
    def audit(index: int):
        """Run entry ``index`` of the audit battery and return its verdict."""
        target, args, q, colluding, _ = AUDIT_BATTERY[index]
        p = protocol.derive_params(*args)
        f = PrimeField(q)
        points = protocol.default_points(p, f)
        if target == "storage":
            cfg = audit.AuditConfig(p, colluding, "storage-security")
            ma = protocol.MessageSet(f, p.layers, p.code_dim, ((1, 2), (3, 4)))
            mb = protocol.MessageSet(f, p.layers, p.code_dim, ((4, 0), (2, 1)))
            return audit.audit_storage_security(cfg, ma, mb, points)
        cfg = audit.AuditConfig(p, colluding, "query-privacy")
        return audit.audit_query_privacy(cfg, (1, 2), points)

    @staticmethod
    def audit_problem(index: int, verdict) -> str | None:
        target, args, q, colluding, expect = AUDIT_BATTERY[index]
        if verdict.passed != expect:
            want = "PASS" if expect else "FAIL"
            return f"{target} audit {args} q={q} colluding={colluding}: expected {want}"
        return None


def _random_matrix(field: PrimeField, rng: Random, rows: int, cols: int) -> FieldMatrix:
    return FieldMatrix(field, [[rng.randrange(field.q) for _ in range(cols)] for _ in range(rows)])


def _matmul(a: list[list[int]], b: list[list[int]], q: int) -> list[list[int]]:
    """Reference product, independent of ``FieldMatrix.mul``."""
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) % q for col in cols] for row in a]


class Psdmm:
    """One PSDMM job per op: fresh A (ell=10 blocks of 16x16) times a private B_theta."""

    name = "psdmm"

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = Random(f"{seed}/ops")

    def describe(self) -> dict:
        return {"q": self.field.q, "params": asdict(self.params)}

    def setup(self) -> None:
        rng = Random(f"{self.seed}/setup")
        self.field = PrimeField(Q31)
        self.params = psdmm.derive_psdmm_params(10, 1, 1, 1, 4, 16, 16, 16, 2)
        self.points = psdmm.default_points(self.params, self.field)
        inst = psdmm.PsdmmInstance.random(self.field, self.params, rng)
        self.library = inst.b_library
        noise = psdmm.PsdmmNoise.random(self.field, self.params, rng)
        self.b_shares = psdmm.share_b(inst, noise, self.points, self.params)

    def inputs(self, i: int):
        p, rng = self.params, self.rng
        a_blocks = tuple(
            _random_matrix(self.field, rng, p.rows_a, p.inner_dim) for _ in range(p.block_count)
        )
        theta = rng.randrange(1, p.library_size + 1)
        return psdmm.PsdmmInstance(self.field, a_blocks, self.library), theta, Random(rng.getrandbits(64))

    def op(self, inp):
        inst, theta, noise_rng = inp
        p, points = self.params, self.points
        noise = psdmm.PsdmmNoise.random(self.field, p, noise_rng)
        a_shares = psdmm.share_a(inst, noise, points, p)
        queries = psdmm.psdmm_query(theta, noise, points, p)
        answers = [
            psdmm.psdmm_answer(a_shares[n], self.b_shares[n], queries[n])
            for n in range(p.num_servers)
        ]
        return a_shares, answers, psdmm.psdmm_decode(answers, points, p)

    def check(self, inp, out) -> str | None:
        inst, theta, _ = inp
        a_shares, answers, blocks = out
        p, q = self.params, self.field.q
        if len(blocks) != p.block_count:
            return f"decoded {len(blocks)} blocks, expected {p.block_count}"
        b_theta = self.library[theta - 1].data
        for l, (a_l, got) in enumerate(zip(inst.a_blocks, blocks), 1):
            if got.data != _matmul(a_l.data, b_theta, q):
                return f"block {l} != A_{l} * B_theta"
        up = sum(m.rows * m.cols for per_layer in a_shares for m in per_layer)
        down = sum(m.rows * m.cols for rounds in answers for m in rounds)
        if Fraction(up, p.block_count * p.rows_a * p.inner_dim) != p.upload_cost:
            return f"upload {up} symbols is not N/K_c per confidential symbol"
        if Fraction(down, p.block_count * p.rows_a * p.cols_b) != p.download_cost:
            return f"download {down} symbols is not N/L per product symbol"
        return None


WORKLOADS = {w.name: w for w in (Bulk, Byzantine, Desk, Psdmm)}
