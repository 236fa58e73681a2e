"""Deterministic multi-server simulation: adversaries, sessions, and sweeps.

Delivery is logical and in-process: unresponsiveness is an omitted answer
(the decoder sees the missing index), Byzantine servers substitute values per
a corruption policy.  Every random draw comes from a child stream derived
from the session master seed, one stream per role, so replaying a seed
reproduces the transcript byte for byte and audits over one noise source can
hold the others fixed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from itertools import combinations
from operator import index
from random import Random

from .field import PrimeField
from .linalg import FieldMatrix
from .protocol import (
    AnswerBundle,
    InfeasibleParamsError,
    MessageSet,
    ProtocolParams,
    QueryNoise,
    StorageNoise,
    decode,
    default_field,
    default_points,
    derive_params,
    encode_storage,
    gen_queries,
    server_answer,
)
from .audit import RateReport, rate_report
from .robust import DecodingFailure

CORRUPTION_POLICIES = ("random", "constant", "adversarial-replay")


def derive_seed(master: int, role: str) -> int:
    """Stable per-role child seed: sha256 over 'master/role'."""
    digest = hashlib.sha256(f"{master}/{role}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class AdversaryConfig:
    """Which servers misbehave and how; empty sets give an honest run."""

    unresponsive: tuple[int, ...] = ()
    byzantine: tuple[int, ...] = ()
    policy: str = "random"
    seed: int = 0
    constant_value: int = 0

    def __post_init__(self):
        for name in ("unresponsive", "byzantine"):  # through operator.index, as ints
            object.__setattr__(self, name, tuple(sorted(set(map(index, getattr(self, name))))))
        object.__setattr__(self, "constant_value", index(self.constant_value))
        if self.policy not in CORRUPTION_POLICIES:
            raise ValueError(f"policy must be one of {CORRUPTION_POLICIES}")
        if set(self.unresponsive) & set(self.byzantine):
            raise ValueError("unresponsive and Byzantine sets must be disjoint")

    def validate(self, params: ProtocolParams, strict: bool = True):
        """Against-budget validation; strict mode rejects over-budget sets."""
        for n in self.unresponsive + self.byzantine:
            if not 1 <= n <= params.num_servers:
                raise ValueError(f"server index {n} out of range")
        if strict:
            if len(self.unresponsive) != params.max_unresponsive:
                raise ValueError(
                    f"exactly U={params.max_unresponsive} unresponsive servers required, "
                    f"got {len(self.unresponsive)}"
                )
            if len(self.byzantine) > params.max_byzantine:
                raise ValueError(
                    f"at most B={params.max_byzantine} Byzantine servers allowed, "
                    f"got {len(self.byzantine)}"
                )

    def to_dict(self) -> dict:
        return {
            "unresponsive": list(self.unresponsive),
            "byzantine": list(self.byzantine),
            "policy": self.policy,
            "seed": self.seed,
            "constant_value": self.constant_value,
        }


HONEST = AdversaryConfig()


@dataclass(frozen=True)
class SessionTranscript:
    """Complete replayable record of one retrieval session."""

    params: ProtocolParams
    q: int
    f_points: tuple[int, ...]
    alpha_points: tuple[int, ...]
    theta: int
    master_seed: int
    role_seeds: dict[str, int]
    adversary: AdversaryConfig
    messages: tuple[tuple[int, ...], ...]
    storages: tuple[FieldMatrix, ...]  # [server-1]: L x K, ServerStorage.shares
    queries: tuple[FieldMatrix, ...]   # [server-1]: K_c x L*K, QueryBundle.rounds
    answers: tuple[tuple[int, ...] | None, ...]           # delivered; None if silent
    decoded: tuple[int, ...] | None
    ok: bool
    failure: str | None
    rates: RateReport | None

    def to_dict(self) -> dict:
        p, k = self.params, self.params.num_messages
        return {
            "scheme": "xstpir",
            "params": {
                "N": p.num_servers,
                "Kc": p.code_dim,
                "X": p.security,
                "T": p.privacy,
                "U": p.max_unresponsive,
                "B": p.max_byzantine,
                "K": p.num_messages,
                "L": p.layers,
                "ell": p.message_len,
            },
            "q": self.q,
            "points": {"f": list(self.f_points), "alpha": list(self.alpha_points)},
            "theta": self.theta,
            "seed": self.master_seed,
            "role_seeds": dict(self.role_seeds),
            "adversary": self.adversary.to_dict(),
            "messages": [list(m) for m in self.messages],
            "storages": [s.data for s in self.storages],
            "queries": [
                [[row[i:i + k] for i in range(0, len(row), k)] for row in rounds.data]
                for rounds in self.queries
            ],
            "answers": [list(a) if a is not None else None for a in self.answers],
            "decoded": list(self.decoded) if self.decoded is not None else None,
            "ok": self.ok,
            "failure": self.failure,
            "rate": self.rates.to_dict() if self.rates is not None else None,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _corrupt(
    true_answers: dict[int, AnswerBundle],
    adversary: AdversaryConfig,
    params: ProtocolParams,
    q: int,
) -> dict[int, AnswerBundle]:
    """Apply the corruption policy to the Byzantine servers' scalars.

    ``true_answers`` holds the responsive servers' honest answers; a liar
    replays only an honest server's.
    """
    out = dict(true_answers)
    if not adversary.byzantine:  # no liar draws, so the rng and honest set go unbuilt
        return out
    rng = Random(adversary.seed)
    honest = [
        n
        for n in range(1, params.num_servers + 1)
        if n not in adversary.unresponsive and n not in adversary.byzantine
    ]
    for b in adversary.byzantine:
        truth = true_answers[b].scalars
        if adversary.policy == "random":
            # uniform nonzero offset: the substituted value is always a real error
            scalars = tuple((v + rng.randrange(1, q)) % q for v in truth)
        elif adversary.policy == "constant":
            scalars = tuple(adversary.constant_value % q for _ in truth)
        else:  # adversarial-replay: claim the next honest server's answers
            source = min(
                (n for n in honest if n > b),
                default=min(honest) if honest else b,
            )
            scalars = true_answers[source].scalars
        out[b] = AnswerBundle(b, scalars)
    return out


def run_session(
    params: ProtocolParams,
    adversary: AdversaryConfig = HONEST,
    theta: int = 1,
    seed: int = 0,
    field: PrimeField | None = None,
    strict: bool = True,
) -> SessionTranscript:
    """One full retrieval against the configured adversary.

    Returns a transcript with ok=True and decoded == W_theta, or a structured
    failure when the adversary exceeded the (U, B) budget (reachable only with
    strict=False; strict mode rejects over-budget configs up front).  ``rates``
    is None when no server answered.
    """
    adversary.validate(params, strict=strict)
    if field is None:
        field = default_field(params)
    points = default_points(params, field)  # rejects q < L + N
    role_seeds = {
        role: derive_seed(seed, role)
        for role in ("messages", "storage-noise", "query-noise")
    }
    messages = MessageSet.random(field, params, Random(role_seeds["messages"]))
    storage_noise = StorageNoise.random(field, params, Random(role_seeds["storage-noise"]))
    query_noise = QueryNoise.random(field, params, Random(role_seeds["query-noise"]))

    storages = encode_storage(messages, storage_noise, points, params)
    queries = gen_queries(theta, query_noise, points, params)
    # a silent server's answer is never delivered, and no liar replays it
    true_answers = {
        s.server: server_answer(s, qb)
        for s, qb in zip(storages, queries)
        if s.server not in adversary.unresponsive
    }
    delivered = _corrupt(true_answers, adversary, params, field.q)

    decoded = None
    failure = None
    try:
        decoded = decode(delivered, points, params)
        ok = decoded == list(messages.messages[theta - 1])
        if not ok:
            failure = "decoded output differs from the requested message"
    except DecodingFailure as exc:
        ok = False
        failure = f"decoding failure: {exc}"

    downloaded = sum(len(ab.scalars) for ab in delivered.values())
    rates = rate_report(params, downloaded, params.message_len) if delivered else None
    return SessionTranscript(
        params=params,
        q=field.q,
        f_points=points.f,
        alpha_points=points.alpha,
        theta=theta,
        master_seed=seed,
        role_seeds=role_seeds,
        adversary=adversary,
        messages=messages.messages,
        storages=tuple(s.shares for s in storages),
        queries=tuple(qb.rounds for qb in queries),
        answers=tuple(
            delivered[n].scalars if n in delivered else None
            for n in range(1, params.num_servers + 1)
        ),
        decoded=tuple(decoded) if decoded is not None else None,
        ok=ok,
        failure=failure,
        rates=rates,
    )


@dataclass(frozen=True)
class SweepCell:
    """Aggregated outcomes for one parameter point and adversary description."""

    params_label: str
    adversary_label: str
    sessions: int
    passes: int
    failures: int


@dataclass(frozen=True)
class SweepSummary:
    cells: tuple[SweepCell, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.failures == 0 for c in self.cells)

    @property
    def total_sessions(self) -> int:
        return sum(c.sessions for c in self.cells)

    def to_csv(self) -> str:
        lines = ["params,adversary,sessions,passes,failures"]
        for c in self.cells:
            lines.append(
                f"{c.params_label},{c.adversary_label},{c.sessions},{c.passes},{c.failures}"
            )
        return "\n".join(lines) + "\n"


def _params_label(p: ProtocolParams) -> str:
    return (
        f"N={p.num_servers} Kc={p.code_dim} X={p.security} T={p.privacy} "
        f"U={p.max_unresponsive} B={p.max_byzantine} K={p.num_messages}"
    )


def placements(params: ProtocolParams):
    """All disjoint (unresponsive, Byzantine) index sets at the full budget."""
    servers = range(1, params.num_servers + 1)
    for u_set in combinations(servers, params.max_unresponsive):
        remaining = [n for n in servers if n not in u_set]
        for b_set in combinations(remaining, params.max_byzantine):
            yield u_set, b_set


def sweep(
    grid,
    mode: str = "honest",
    policies=("random",),
    draws: int = 1,
    thetas=None,
    seeds=(0,),
) -> SweepSummary:
    """Run sessions over a params grid; per-cell pass/fail counts.

    Both modes run one loop over (placement, policy, draws) cells.  Mode
    "honest" is the single cell where the first U servers stay silent, with no
    Byzantine server, policy "random" and one draw; mode "placements"
    enumerates every disjoint (U, B) placement at the full budget, each
    policy, `draws` draws.  No seed, theta or policy, draws < 1, or a policy
    outside ``CORRUPTION_POLICIES`` raise ``ValueError`` before any session.
    """
    if mode not in ("honest", "placements"):
        raise ValueError("mode must be 'honest' or 'placements'")
    if not seeds or (thetas is not None and not thetas) or not policies or draws < 1:
        raise ValueError("need at least one seed, theta, policy and draw")
    if not set(policies) <= set(CORRUPTION_POLICIES):
        raise ValueError(f"policies must be among {CORRUPTION_POLICIES}")
    cells = []
    for params in grid:
        theta_list = thetas if thetas is not None else range(1, params.num_messages + 1)
        if mode == "honest":
            # |U| = U is part of the model: the first U servers stay silent
            runs = [(tuple(range(1, params.max_unresponsive + 1)), (), "random", 1, "honest")]
        else:
            runs = [
                (u_set, b_set, policy, draws, f"U={list(u_set)} B={list(b_set)} policy={policy}")
                for u_set, b_set in placements(params)
                for policy in policies
            ]
        for u_set, b_set, policy, run_draws, label in runs:
            sessions = passes = 0
            for draw in range(run_draws):
                adv = AdversaryConfig(u_set, b_set, policy, seed=draw)
                for theta in theta_list:
                    for seed in seeds:
                        sessions += 1
                        passes += run_session(params, adv, theta, seed).ok
            cells.append(
                SweepCell(_params_label(params), label, sessions, passes, sessions - passes)
            )
    return SweepSummary(tuple(cells))


def params_grid(
    n_range, kc_range, x_range, t_range, u_range, b_range, k_range
):
    """All feasible parameter tuples in the given ranges."""
    out = []
    for n in n_range:
        for kc in kc_range:
            for x in x_range:
                for t in t_range:
                    for u in u_range:
                        for b in b_range:
                            if u >= n:  # also skips N = 0, which is not a tuple at all
                                continue
                            for k in k_range:
                                try:
                                    out.append(derive_params(n, kc, x, t, u, b, k))
                                except InfeasibleParamsError:
                                    break  # L does not depend on K
    return out
