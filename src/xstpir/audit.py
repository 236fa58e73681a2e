"""Executable checks of the secrecy guarantees by exact distribution enumeration.

At desk scale the "learns nothing" guarantees reduce to finite statements: the
joint distribution of what a colluding set observes, taken over all noise
assignments, must be identical under any two message sets (storage secrecy)
or any two desired indices (query privacy).  Enumeration is exact, never
sampled, so a verdict is a proof at the audited parameters.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import partial
from itertools import islice, product
from math import prod
import json

from .linalg import EvaluationPoints
from .protocol import (
    InfeasibleParamsError,
    MessageSet,
    ProtocolParams,
    QueryNoise,
    StorageNoise,
    achievable_rate,
    comparison_rate_prior,
    default_points,
    encode_storage,
    gen_queries,
    nested,
)

DEFAULT_STATE_BUDGET = 10**6


@dataclass(frozen=True)
class AuditConfig:
    """What to audit, who colludes, and how many joint states we may enumerate."""

    params: ProtocolParams
    colluding: tuple[int, ...]
    target: str  # "storage-security" | "query-privacy"
    state_budget: int = DEFAULT_STATE_BUDGET

    def __post_init__(self):
        object.__setattr__(self, "colluding", tuple(sorted(set(self.colluding))))
        if self.target not in ("storage-security", "query-privacy"):
            raise ValueError("target must be storage-security or query-privacy")
        if not self.colluding:
            raise ValueError("colluding set must be non-empty")
        if any(not 1 <= n <= self.params.num_servers for n in self.colluding):
            raise ValueError("colluding server index out of range")

    @property
    def within_budget(self) -> bool:
        bound = (
            self.params.security
            if self.target == "storage-security"
            else self.params.privacy
        )
        return len(self.colluding) <= bound


@dataclass(frozen=True)
class AuditVerdict:
    """Outcome of one exact distribution-equality audit."""

    target: str
    colluding: tuple[int, ...]
    states_enumerated: int
    passed: bool
    support_size: int
    within_budget: bool

    def to_json(self) -> str:
        return json.dumps(
            {
                "target": self.target,
                "colluding_set": list(self.colluding),
                "states_enumerated": self.states_enumerated,
                "pass": self.passed,
                "support_size": self.support_size,
                "within_budget": self.within_budget,
            },
            sort_keys=True,
        )


def _audit(cfg: AuditConfig, points: EvaluationPoints, shape, views) -> AuditVerdict:
    """Enumerate every noise tensor of ``shape``; compare the views' distributions.

    Each view maps a noise tensor to the N servers' observations; the colluding
    servers' joint observation is counted per view, and the audit passes when
    every view has the same distribution.
    """
    q = points.field.q
    free = prod(shape)
    states = q**free
    if states > cfg.state_budget:
        raise ValueError(
            f"enumeration needs {states} states, over the budget of {cfg.state_budget}"
        )
    dists = []
    for view in views:
        dist: Counter = Counter()
        for flat in product(range(q), repeat=free):
            observed = view(nested(shape, partial(islice, iter(flat))))
            dist[tuple(observed[n - 1] for n in cfg.colluding)] += 1
        dists.append(dist)
    return AuditVerdict(
        target=cfg.target,
        colluding=cfg.colluding,
        states_enumerated=len(views) * states,
        passed=all(d == dists[0] for d in dists),
        support_size=len(set().union(*dists)),
        within_budget=cfg.within_budget,
    )


def audit_storage_security(
    cfg: AuditConfig,
    msgs_a: MessageSet,
    msgs_b: MessageSet,
    points: EvaluationPoints | None = None,
) -> AuditVerdict:
    """Exact check that colluding shares are identically distributed under two libraries."""
    p = cfg.params
    if cfg.target != "storage-security":
        raise ValueError("config target is not storage-security")
    if p.security == 0:
        raise ValueError("no storage secrecy is claimed at X = 0")
    if points is None:
        points = default_points(p)
    views = [
        lambda z, m=m: [
            s.shares for s in encode_storage(m, StorageNoise(points.field, z), points, p)
        ]
        for m in (msgs_a, msgs_b)
    ]
    return _audit(cfg, points, StorageNoise.shape(p), views)


def audit_query_privacy(
    cfg: AuditConfig,
    theta_pair: tuple[int, int],
    points: EvaluationPoints | None = None,
) -> AuditVerdict:
    """Exact check that colluding queries are identically distributed for two indices.

    Storage is generated independently of the desired index and of the query
    noise (the seed split in the simulator keeps the streams separate), so the
    joint observed-by-colluders test reduces to this query marginal.  Equal
    indices give one view, enumerated once.
    """
    p = cfg.params
    if cfg.target != "query-privacy":
        raise ValueError("config target is not query-privacy")
    if p.privacy == 0:
        raise ValueError("no query privacy is claimed at T = 0")
    for th in theta_pair:
        if not 1 <= th <= p.num_messages:
            raise ValueError(f"theta must be in 1..{p.num_messages}")
    if points is None:
        points = default_points(p)
    views = [
        lambda zp, th=th: [
            qb.rounds for qb in gen_queries(th, QueryNoise(points.field, zp), points, p)
        ]
        for th in dict.fromkeys(theta_pair)
    ]
    return _audit(cfg, points, QueryNoise.shape(p), views)


@dataclass(frozen=True)
class RateReport:
    """Download accounting for one completed retrieval."""

    downloaded_symbols: int
    retrieved_symbols: int
    realized_rate: Fraction
    achievable_rate: Fraction
    prior_rate: Fraction
    matches_achievable: bool = dc_field(init=False)

    def __post_init__(self):
        object.__setattr__(
            self, "matches_achievable", self.realized_rate == self.achievable_rate
        )

    def to_dict(self) -> dict:
        return {
            "downloaded_symbols": self.downloaded_symbols,
            "retrieved_symbols": self.retrieved_symbols,
            "realized_rate": str(self.realized_rate),
            "achievable_rate": str(self.achievable_rate),
            "prior_rate": str(self.prior_rate),
            "matches_achievable": self.matches_achievable,
        }


def rate_report(
    params: ProtocolParams, downloaded_symbols: int, retrieved_symbols: int
) -> RateReport:
    """Realized rate of a transcript, against the exact formula rates."""
    if params.layers < 1:
        raise InfeasibleParamsError("rate undefined for an infeasible instance")
    if downloaded_symbols <= 0:
        raise ValueError("transcript downloaded no symbols")
    return RateReport(
        downloaded_symbols=downloaded_symbols,
        retrieved_symbols=retrieved_symbols,
        realized_rate=Fraction(retrieved_symbols, downloaded_symbols),
        achievable_rate=achievable_rate(params),
        prior_rate=comparison_rate_prior(params),
    )
