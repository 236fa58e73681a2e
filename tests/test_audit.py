"""Distribution-equality audits and rate accounting."""

import json
import sys
from decimal import Decimal
from fractions import Fraction
from functools import partial
from itertools import combinations
from random import Random

import pytest

import xstpir as xp
from oracles import enumerate_audit
from xstpir import audit as audit_module
from xstpir.audit import (
    AuditConfig,
    AuditVerdict,
    audit_query_privacy,
    audit_storage_security,
    rate_report,
)
from xstpir.protocol import InfeasibleParamsError


def storage_scheme():
    """N=4, K_c=2, X=1, T=1, K=2 over GF(5): one noise layer, 25 states."""
    p = xp.derive_params(4, 2, 1, 1, num_messages=2)
    f = xp.PrimeField(5)
    return p, f, xp.default_points(p, f)


def test_storage_audit_passes_for_every_single_server():
    p, f, pts = storage_scheme()
    ma = xp.MessageSet(f, 1, 2, ((1, 2), (3, 4)))
    mb = xp.MessageSet(f, 1, 2, ((0, 0), (0, 0)))
    for n in range(1, 5):
        v = audit_storage_security(
            AuditConfig(p, (n,), "storage-security"), ma, mb, pts
        )
        assert v.passed and v.within_budget
        # one uniform noise vector: the share marginal is uniform over GF(5)^2
        assert v.support_size == 25


def test_storage_audit_fails_beyond_budget():
    """X + K_c shares pin the messages, so the distributions must differ."""
    p, f, pts = storage_scheme()
    ma = xp.MessageSet(f, 1, 2, ((1, 2), (3, 4)))
    mb = xp.MessageSet(f, 1, 2, ((1, 2), (3, 0)))
    v = audit_storage_security(
        AuditConfig(p, (1, 2, 3), "storage-security"), ma, mb, pts
    )
    assert not v.passed and not v.within_budget


def test_storage_audit_not_applicable_at_x_zero():
    p = xp.derive_params(4, 2, 0, 1, num_messages=2)
    f = xp.default_field(p)
    msgs = xp.MessageSet.random(f, p, Random(0))
    cfg = AuditConfig(p, (1,), "storage-security")
    with pytest.raises(ValueError):
        audit_storage_security(cfg, msgs, msgs)


def test_query_audit_passes_single_server():
    p = xp.derive_params(3, 1, 1, 1, num_messages=2)
    f = xp.PrimeField(5)
    pts = xp.default_points(p, f)
    for n in range(1, 4):
        v = audit_query_privacy(AuditConfig(p, (n,), "query-privacy"), (1, 2), pts)
        assert v.passed and v.within_budget


def test_query_audit_fails_beyond_budget():
    """Two colluders at T=1 can eliminate the noise and reveal the selector."""
    p = xp.derive_params(4, 1, 1, 1, num_messages=2)
    pts = xp.default_points(p)
    v = audit_query_privacy(AuditConfig(p, (1, 3), "query-privacy"), (1, 2), pts)
    assert not v.passed and not v.within_budget


def test_query_audit_same_theta_trivially_passes():
    p = xp.derive_params(3, 1, 1, 1, num_messages=2)
    cfg = AuditConfig(p, (2,), "query-privacy")
    v = audit_query_privacy(cfg, (2, 2))
    assert v.passed
    # one distinct index is one view, enumerated once
    free = p.layers * p.privacy * p.code_dim * p.num_messages
    assert v.states_enumerated == xp.default_field(p).q ** free
    assert audit_query_privacy(cfg, (2, 1)).to_json() == audit_query_privacy(cfg, (1, 2)).to_json()


def test_query_audit_needs_exactly_two_indices():
    """Past the T = 1 bound the pair (1, 2) fails; one index compared nothing and passed."""
    p = xp.derive_params(4, 1, 1, 1, num_messages=3)
    cfg = AuditConfig(p, (1, 3), "query-privacy")
    points = xp.default_points(p, xp.PrimeField(7))
    assert not audit_query_privacy(cfg, (1, 2), points).passed
    for thetas in [(), (2,), (1, 2, 3)]:
        with pytest.raises(ValueError, match="two indices"):
            audit_query_privacy(cfg, thetas, points)


def test_query_audit_theta_range_checked():
    p = xp.derive_params(3, 1, 1, 1, num_messages=2)
    with pytest.raises(ValueError):
        audit_query_privacy(AuditConfig(p, (1,), "query-privacy"), (1, 3))


def test_config_validation():
    p = xp.derive_params(4, 2, 1, 1, num_messages=2)
    with pytest.raises(ValueError):
        AuditConfig(p, (1,), "nonsense")
    with pytest.raises(ValueError):
        AuditConfig(p, (), "storage-security")
    with pytest.raises(ValueError):
        AuditConfig(p, (9,), "storage-security")
    f = xp.PrimeField(5)
    msgs = xp.MessageSet.random(f, p, Random(0))
    with pytest.raises(ValueError):
        audit_storage_security(AuditConfig(p, (1,), "query-privacy"), msgs, msgs)


def test_verdict_json_keys():
    p, f, pts = storage_scheme()
    msgs = xp.MessageSet.random(f, p, Random(1))
    v = audit_storage_security(AuditConfig(p, (2,), "storage-security"), msgs, msgs, pts)
    doc = json.loads(v.to_json())
    assert set(doc) >= {"target", "colluding_set", "states_enumerated", "pass"}
    assert doc["pass"] is True and doc["colluding_set"] == [2]
    # counts past the interpreter's int-to-str digit limit are written exactly
    limit = sys.get_int_max_str_digits()
    big = AuditVerdict("query-privacy", (1,), 2 * 7**6000, True, 7**6000, True)
    doc = json.loads(big.to_json(), parse_int=Decimal)
    assert doc["support_size"] == Decimal(7**6000) and sys.get_int_max_str_digits() == limit


def tiny_schemes():
    """Every feasible scheme with N 2..5, K_c 1..2, X and T 0..2, K = 2 and L + N <= 7."""
    for n in range(2, 6):
        for kc in (1, 2):
            for x in (0, 1, 2):
                for t in (0, 1, 2):
                    if kc == 1 and x == 0 and t == 0:
                        continue
                    layers = n - (kc + x + t - 1)
                    if layers < 1 or layers + n > 7:
                        continue
                    p = xp.derive_params(n, kc, x, t, num_messages=2)
                    f = xp.default_field(p)
                    yield p, f, xp.default_points(p, f)


def test_audits_pass_across_tiny_feasible_configs():
    """Every within-budget colluding set passes, over all tiny schemes q <= 7."""
    checked = 0
    for p, f, pts in tiny_schemes():
        n, kc, x, t, layers, q = p.num_servers, p.code_dim, p.security, p.privacy, p.layers, f.q
        if x >= 1 and q ** (layers * x * 2) <= 10**4:
            ma = xp.MessageSet.random(f, p, Random(checked))
            mb = xp.MessageSet.random(f, p, Random(checked + 1))
            for size in range(1, x + 1):
                for group in combinations(range(1, n + 1), size):
                    cfg = AuditConfig(p, group, "storage-security")
                    assert audit_storage_security(cfg, ma, mb, pts).passed
                    checked += 1
        if t >= 1 and q ** (layers * t * kc * 2) <= 10**4:
            for size in range(1, t + 1):
                for group in combinations(range(1, n + 1), size):
                    cfg = AuditConfig(p, group, "query-privacy")
                    assert audit_query_privacy(cfg, (1, 2), pts).passed
                    checked += 1
    assert checked > 40


def test_rank_audit_matches_enumeration(monkeypatch):
    """Rank verdicts equal the enumeration's, JSON for JSON, on every colluding set.

    Covers the tiny schemes with q^free <= 10^3, both targets and every
    colluding-set size from 1 to N, so within- and over-budget sets alike.
    """
    verdicts = []
    for k, (p, f, pts) in enumerate(tiny_schemes()):
        runs = []
        if p.security and f.q ** xp.StorageNoise.size(p) <= 10**3:
            ma = xp.MessageSet.random(f, p, Random(2 * k))
            mb = xp.MessageSet.random(f, p, Random(2 * k + 1))
            runs.append(("storage-security", partial(audit_storage_security, msgs_a=ma, msgs_b=mb)))
        if p.privacy and f.q ** xp.QueryNoise.size(p) <= 10**3:
            runs.append(("query-privacy", partial(audit_query_privacy, theta_pair=(1, 2))))
        for target, run in runs:
            for size in range(1, p.num_servers + 1):
                for group in combinations(range(1, p.num_servers + 1), size):
                    cfg = AuditConfig(p, group, target)
                    rank = run(cfg, points=pts)
                    with monkeypatch.context() as m:
                        m.setattr(audit_module, "_audit", enumerate_audit)
                        assert run(cfg, points=pts).to_json() == rank.to_json()
                    verdicts.append(rank.passed)
    assert len(verdicts) == 198 and min(verdicts.count(True), verdicts.count(False)) >= 90


def test_rank_audit_matches_enumeration_on_unequal_noise_spans():
    """Views whose noise spans differ in rank or direction, which the scheme's views never do."""
    p = xp.derive_params(3, 1, 1, 1, num_messages=2)
    cfg = AuditConfig(p, (1,), "query-privacy")
    pts = xp.default_points(p, xp.PrimeField(5))
    views = [
        lambda z: [(z[0], 0)],
        lambda z: [(0, z[0])],
        lambda z: [(z[0], z[1])],
        lambda z: [(1, 2)],
        lambda z: [((z[0] + 1) % 5, 2 * z[0] % 5)],
    ]
    for pair in combinations(views, 2):
        rank = audit_module._audit(cfg, pts, 2, list(pair))
        assert rank.to_json() == enumerate_audit(cfg, pts, 2, list(pair)).to_json()


def test_rate_report_worked_examples():
    p4 = xp.derive_params(4, 2, 1, 1, num_messages=3)
    r = rate_report(p4, 8, 2)
    assert r.realized_rate == Fraction(1, 4) and r.matches_achievable
    assert r.prior_rate == Fraction(1, 6)
    p5 = xp.derive_params(5, 2, 1, 1, num_messages=3)
    r5 = rate_report(p5, 10, 4)
    assert r5.realized_rate == Fraction(2, 5) and r5.matches_achievable


def test_rate_report_guards():
    with pytest.raises(InfeasibleParamsError):
        xp.derive_params(5, 2, 1, 1, max_unresponsive=2)  # L = 0: refused upstream
    p = xp.derive_params(4, 2, 1, 1, num_messages=2)
    with pytest.raises(ValueError):
        rate_report(p, 0, 2)
