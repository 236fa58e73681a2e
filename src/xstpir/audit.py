"""Exact checks of the secrecy guarantees by rank, and rate accounting.

What a colluding set observes must be distributed alike, over uniform noise z,
under any two message sets (storage secrecy) or desired indices (query
privacy).  Shares and queries are linear in (messages, noise), so a view is
y(0) + M z, uniform on the coset y(0) + colspace(M), and two views are alike
iff both M have the rank of [M_a | M_b | y_b(0) - y_a(0)].  Ranks over GF(q)
are exact, so a verdict is a proof at the audited parameters, at any size.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain
import json
from operator import index
import sys

from .linalg import EvaluationPoints, row_reduce
from .protocol import (
    MessageSet,
    ProtocolParams,
    QueryNoise,
    StorageNoise,
    achievable_rate,
    comparison_rate_prior,
    default_points,
    encode_storage,
    gen_queries,
    _desired_index,
    _of_residues,
)


@dataclass(frozen=True)
class AuditConfig:
    """What to audit and who colludes."""

    params: ProtocolParams
    colluding: tuple[int, ...]
    target: str  # "storage-security" | "query-privacy"

    def __post_init__(self):
        object.__setattr__(self, "colluding", tuple(sorted(set(map(index, self.colluding)))))
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
    """Outcome of one exact distribution-equality audit over q^free noise states per view."""

    target: str
    colluding: tuple[int, ...]
    states_enumerated: int
    passed: bool
    support_size: int
    within_budget: bool

    def to_json(self) -> str:
        # at scale q^free has thousands of digits, past the int-to-str default limit
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
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
        finally:
            sys.set_int_max_str_digits(limit)


def _audit(cfg: AuditConfig, points: EvaluationPoints, free: int, views) -> AuditVerdict:
    """Compare the views, affine in a flat noise of ``free`` entries, by rank.

    Each view maps a flat noise to the N servers' observations; its values at
    z = 0 and at each unit vector give y(0) and M (one view is both a and b).
    Each unit vector is built only for its view call, so one is alive at a time.
    The support is q^r_a + q^r_b less the intersection, a coset of dimension
    r_a + r_b - r_ab when the offset lies in colspace [M_a | M_b], else empty.
    """
    q = points.field.q
    affine = []  # per view: y(0), then the columns of M
    for view in views:
        zs = chain([(0,) * free], ((0,) * i + (1,) + (0,) * (free - 1 - i) for i in range(free)))
        ys = ([v for n in cfg.colluding for v in seen[n - 1]] for seen in map(view, zs))
        y0 = next(ys)
        affine.append((y0, [[(v - o) % q for v, o in zip(y, y0)] for y in ys]))
    (ya, ma), (yb, mb) = affine[0], affine[-1]
    offset = [(b - a) % q for a, b in zip(ya, yb)]
    pivots = row_reduce(list(zip(*ma, *mb, offset)), q)[1]  # of [M_a | M_b | offset]
    r_a = sum(c < free for c in pivots)
    r_ab = sum(c < 2 * free for c in pivots)
    r_b = len(row_reduce(list(zip(*mb)), q)[1])
    shared = q ** (r_a + r_b - r_ab) if len(pivots) == r_ab else 0
    return AuditVerdict(
        target=cfg.target,
        colluding=cfg.colluding,
        states_enumerated=len(views) * q**free,
        passed=r_a == r_b == len(pivots),
        support_size=q**r_a + q**r_b - shared,
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
    noise = partial(_of_residues, StorageNoise, points.field)  # the unit vectors are residues
    views = [
        lambda z, m=m: [s.shares.flat for s in encode_storage(m, noise(z), points, p)]
        for m in (msgs_a, msgs_b)
    ]
    return _audit(cfg, points, StorageNoise.size(p), views)


def audit_query_privacy(
    cfg: AuditConfig,
    theta_pair: tuple[int, int],
    points: EvaluationPoints | None = None,
) -> AuditVerdict:
    """Exact check that colluding queries are identically distributed for two indices.

    ``theta_pair`` must hold exactly two indices (``ValueError`` otherwise).
    Storage is generated independently of the desired index and of the query
    noise (the seed split in the simulator keeps the streams separate), so the
    joint observed-by-colluders test reduces to this query marginal.  Equal
    indices give one view, counted once in ``states_enumerated``.
    """
    p = cfg.params
    if cfg.target != "query-privacy":
        raise ValueError("config target is not query-privacy")
    if p.privacy == 0:
        raise ValueError("no query privacy is claimed at T = 0")
    if len(theta_pair) != 2:
        raise ValueError("theta_pair must name exactly two indices")
    theta_pair = [_desired_index(th, p.num_messages) for th in theta_pair]
    if points is None:
        points = default_points(p)
    noise = partial(_of_residues, QueryNoise, points.field)  # the unit vectors are residues
    views = [
        lambda zp, th=th: [qb.rounds.flat for qb in gen_queries(th, noise(zp), points, p)]
        for th in dict.fromkeys(theta_pair)
    ]
    return _audit(cfg, points, QueryNoise.size(p), views)


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


@lru_cache(maxsize=1024)  # desk-scale grids revisit their 435 tuples
def rate_report(
    params: ProtocolParams, downloaded_symbols: int, retrieved_symbols: int
) -> RateReport:
    """Realized rate of a transcript, against the exact formula rates.

    Memoized: the report is frozen and depends on nothing else.
    """
    if downloaded_symbols <= 0:
        raise ValueError("transcript downloaded no symbols")
    return RateReport(
        downloaded_symbols=downloaded_symbols,
        retrieved_symbols=retrieved_symbols,
        realized_rate=Fraction(retrieved_symbols, downloaded_symbols),
        achievable_rate=achievable_rate(params),
        prior_rate=comparison_rate_prior(params),
    )
