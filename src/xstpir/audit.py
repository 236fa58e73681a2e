"""Exact checks of the secrecy guarantees by rank, and rate accounting.

A colluding set's view is linear in (messages, noise), and the coders code the
data and add the selector outside the noise terms, so under every library or
index θ it is y(0) + M z with one noise map M: uniform on y(0) + colspace M.
The views are alike iff rank [M | D] = rank M for their offsets D.  Ranks over
GF(q) are exact, so a verdict is a proof at the audited parameters, at any
size, and ``audit_all`` covers every library or every index at once.
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
        p = self.params
        return len(self.colluding) <= (p.security if self.target == "storage-security" else p.privacy)


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
    """Compare the views, affine in a flat noise of ``free`` entries, by one rank test.

    Each view maps a flat noise to the N servers' observations.  Premise: every
    view has one noise map M (see the module docstring).  ``views[0]`` at z = 0
    and at each unit vector, built only for its call, gives y_0(0) and M.  D
    holds each view's offset y_i(0) - y_0(0), from one call at z = 0 (view 0's
    is zero).  The views leak rank [M | D] - rank M symbols.  Two offsets share
    a coset of colspace M iff their reduced columns agree on D's pivot rows.
    """
    q = points.field.q
    zs = chain([(0,) * free], ((0,) * i + (1,) + (0,) * (free - 1 - i) for i in range(free)))
    seen = chain(map(views[0], zs), (view((0,) * free) for view in views[1:]))
    ys = ([v for n in cfg.colluding for v in s[n - 1]] for s in seen)
    y0 = next(ys)
    columns = ([(v - o) % q for v, o in zip(y, y0)] for y in chain(ys, [y0]))  # view 0's D last
    rref, pivots = row_reduce(list(zip(*columns)), q)
    r = sum(c < free for c in pivots)  # rank M; the rest of the pivots are D's
    cosets = {tuple(row[free + i] for row in rref[r:len(pivots)]) for i in range(len(views))}
    return AuditVerdict(
        target=cfg.target,
        colluding=cfg.colluding,
        states_enumerated=len(views) * q**free,
        passed=len(pivots) == r,
        support_size=len(cosets) * q**r,
        within_budget=cfg.within_budget,
    )


def _views(cfg: AuditConfig, points: EvaluationPoints | None, secrets):
    """(points, free, views): the coder of ``cfg.target``, one view per library or index θ."""
    p = cfg.params
    points = points or default_points(p)
    if cfg.target == "storage-security":
        if p.security == 0:
            raise ValueError("no storage secrecy is claimed at X = 0")
        cls, code = StorageNoise, lambda m, z: [s.shares.flat for s in encode_storage(m, z, points, p)]
    else:
        if p.privacy == 0:
            raise ValueError("no query privacy is claimed at T = 0")
        secrets = dict.fromkeys(_desired_index(th, p.num_messages) for th in secrets)
        cls, code = QueryNoise, lambda th, z: [qb.rounds.flat for qb in gen_queries(th, z, points, p)]
    noise = partial(_of_residues, cls, points.field)  # the unit vectors are residues
    return points, cls.size(p), [lambda z, s=s: code(s, noise(z)) for s in secrets]


def audit_storage_security(
    cfg: AuditConfig,
    msgs_a: MessageSet,
    msgs_b: MessageSet,
    points: EvaluationPoints | None = None,
) -> AuditVerdict:
    """Exact check that colluding shares are identically distributed under two libraries."""
    if cfg.target != "storage-security":
        raise ValueError("config target is not storage-security")
    return _audit(cfg, *_views(cfg, points, (msgs_a, msgs_b)))


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
    if cfg.target != "query-privacy":
        raise ValueError("config target is not query-privacy")
    if len(theta_pair) != 2:
        raise ValueError("theta_pair must name exactly two indices")
    return _audit(cfg, *_views(cfg, points, theta_pair))


def audit_all(cfg: AuditConfig, points: EvaluationPoints | None = None) -> AuditVerdict:
    """Exact check over every library (storage) or every index θ = 1..K (privacy) at once.

    Storage compares the zero library with each of the ell*K unit libraries:
    by linearity every library's offset is a combination of theirs.  At K = 1
    the privacy audit has no index to hide and passes.
    """
    p = cfg.params
    secrets = range(1, p.num_messages + 1)
    if cfg.target == "storage-security":
        points = points or default_points(p)
        zero = (0,) * p.message_len
        units = [zero[:i] + (1,) + zero[i + 1:] for i in range(len(zero))]
        rows = (zero,) * p.num_messages
        libraries = [rows] + [rows[:k] + (u,) + rows[k + 1:] for k in range(len(rows)) for u in units]
        secrets = [_of_residues(MessageSet, points.field, p.layers, p.code_dim, m) for m in libraries]
    return _audit(cfg, *_views(cfg, points, secrets))


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
