"""Command-line frontend: retrieve, sweep, audit, psdmm, rates.

Flags mirror a JSON config file (keys named like the flags, without dashes);
explicit flags override file values.  Exit codes: 0 success or expected-fail
mode, 1 constraint violation, 2 decoding/guarantee failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from random import Random

from .audit import AuditConfig, audit_query_privacy, audit_storage_security
from .field import PrimeField
from .protocol import (
    InfeasibleParamsError,
    MessageSet,
    achievable_rate,
    comparison_rate_prior,
    default_field,
    default_points,
    derive_params,
)
from . import psdmm as psdmm_mod
from .robust import DecodingFailure
from .sim import (
    CORRUPTION_POLICIES,
    AdversaryConfig,
    derive_seed,
    params_grid,
    run_session,
    sweep,
)

EXIT_OK = 0
EXIT_CONSTRAINT = 1
EXIT_DECODING = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    """argparse that exits with the constraint-violation status."""

    def error(self, message):
        self.exit(EXIT_CONSTRAINT, f"{self.prog}: error: {message}\n")


def _int_list(text: str) -> list[int]:
    """Comma list and/or 'a..b' ranges: '4,6..8' -> [4, 6, 7, 8]."""
    out: list[int] = []
    for part in str(text).split(","):
        part = part.strip()
        if not part:
            continue
        if ".." in part:
            lo, hi = part.split("..")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def _merged(args: argparse.Namespace, defaults: dict) -> dict:
    """Config-file values fill unset flags; hard defaults fill the rest."""
    cfg = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ValueError("config file must hold a JSON object")
    merged = {}
    for key, hard in defaults.items():
        cli_val = getattr(args, key, None)
        if cli_val is not None:
            merged[key] = cli_val
        elif key in cfg:
            merged[key] = cfg[key]
        else:
            merged[key] = hard
    return merged


def _field_for(params, q):
    """The default field, or GF(q) for a prime override; ``default_points`` checks q >= L + N."""
    if q is None:
        return default_field(params)
    return PrimeField(int(q))  # rejects non-prime q


def _write_or_print(text: str, path: str | None):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        print(text)


def _add_xstpir_flags(sp, with_theta: bool = True):
    sp.add_argument("--N", type=int, help="server count")
    sp.add_argument("--Kc", type=int, help="MDS storage code dimension")
    sp.add_argument("--X", type=int, help="storage-security level")
    sp.add_argument("--T", type=int, help="query-privacy level")
    sp.add_argument("--U", type=int, help="unresponsive server count")
    sp.add_argument("--B", type=int, help="Byzantine server bound")
    sp.add_argument("--K", type=int, help="message count")
    if with_theta:
        sp.add_argument("--theta", type=int, help="desired message index (1-based)")
    sp.add_argument("--seed", type=int, help="master seed")
    sp.add_argument("--q", type=int, help="prime field size override (q >= L+N)")
    sp.add_argument("--config", help="JSON config file; flags override its values")
    sp.add_argument("--out", help="output file (default: stdout)")


def cmd_retrieve(args) -> int:
    opts = _merged(
        args,
        {
            "N": 4, "Kc": 2, "X": 1, "T": 1, "U": 0, "B": 0, "K": 2,
            "theta": 1, "seed": 0, "q": None, "out": None,
            "unresponsive": "", "byzantine": "", "policy": "random",
        },
    )
    params = derive_params(
        opts["N"], opts["Kc"], opts["X"], opts["T"], opts["U"], opts["B"], opts["K"]
    )
    field = _field_for(params, opts["q"])
    adversary = AdversaryConfig(
        tuple(_int_list(opts["unresponsive"])),
        tuple(_int_list(opts["byzantine"])),
        opts["policy"],
        seed=derive_seed(opts["seed"], "corruption"),
    )
    transcript = run_session(params, adversary, opts["theta"], opts["seed"], field)
    _write_or_print(transcript.to_json(), opts["out"])
    rep = transcript.rates
    print(
        f"realized rate: {rep.realized_rate} (achievable: {rep.achievable_rate}, "
        f"prior: {rep.prior_rate})",
        file=sys.stderr,
    )
    if not transcript.ok:
        raise DecodingFailure(transcript.failure or "retrieval failed")
    return EXIT_OK


def cmd_sweep(args) -> int:
    opts = _merged(
        args,
        {
            "N": None, "Kc": None, "X": None, "T": None, "U": None, "B": None,
            "K": None, "mode": "honest", "policies": "random", "draws": 1,
            "seeds": 1, "out": None,
        },
    )
    ranges = {}
    for key, fallback in (
        ("N", [4]), ("Kc", [1]), ("X", [0]), ("T", [1]), ("U", [0]), ("B", [0]), ("K", [2]),
    ):
        v = opts[key]
        ranges[key] = _int_list(v) if v is not None else fallback
    grid = params_grid(
        ranges["N"], ranges["Kc"], ranges["X"], ranges["T"],
        ranges["U"], ranges["B"], ranges["K"],
    )
    summary = sweep(
        grid,
        mode=opts["mode"],
        policies=tuple(str(opts["policies"]).split(",")),
        draws=int(opts["draws"]),
        seeds=tuple(range(int(opts["seeds"]))),
    )
    _write_or_print(summary.to_csv(), opts["out"])
    print(
        f"{summary.total_sessions} sessions, all passed: {summary.all_passed}",
        file=sys.stderr,
    )
    return EXIT_OK if summary.all_passed else EXIT_DECODING


def cmd_audit(args) -> int:
    opts = _merged(
        args,
        {
            "N": 4, "Kc": 2, "X": 1, "T": 1, "U": 0, "B": 0, "K": 2, "seed": 0,
            "q": None, "target": "storage", "colluding": "1", "thetas": "1,2",
            "expect_fail": False, "out": None,
        },
    )
    params = derive_params(
        opts["N"], opts["Kc"], opts["X"], opts["T"], opts["U"], opts["B"], opts["K"]
    )
    field = _field_for(params, opts["q"])
    points = default_points(params, field)
    colluding = tuple(_int_list(opts["colluding"]))
    if opts["target"] in ("storage", "storage-security"):
        cfg = AuditConfig(params, colluding, "storage-security")
        msgs_a = MessageSet.random(field, params, Random(derive_seed(opts["seed"], "audit-a")))
        msgs_b = MessageSet.random(field, params, Random(derive_seed(opts["seed"], "audit-b")))
        verdict = audit_storage_security(cfg, msgs_a, msgs_b, points)
    elif opts["target"] in ("privacy", "query-privacy"):
        cfg = AuditConfig(params, colluding, "query-privacy")
        pair = _int_list(opts["thetas"])
        if len(pair) != 2:
            raise ValueError("--thetas must name exactly two indices")
        verdict = audit_query_privacy(cfg, (pair[0], pair[1]), points)
    else:
        raise ValueError("--target must be 'storage' or 'privacy'")
    _write_or_print(verdict.to_json(), opts["out"])
    if verdict.passed or opts["expect_fail"]:
        return EXIT_OK
    raise DecodingFailure("audit reported a distribution mismatch")


def cmd_psdmm(args) -> int:
    opts = _merged(
        args,
        {
            "N": 4, "T": 1, "XA": 1, "XB": 0, "M": 2, "Kc": 1,
            "lam": 2, "chi": 2, "mu": 2, "theta": 1, "seed": 0, "q": None,
            "out": None,
        },
    )
    params = psdmm_mod.derive_psdmm_params(
        opts["N"], opts["T"], opts["XA"], opts["XB"], opts["M"],
        opts["lam"], opts["chi"], opts["mu"], opts["Kc"],
    )
    field = _field_for(params, opts["q"])
    points = psdmm_mod.default_points(params, field)
    inst = psdmm_mod.PsdmmInstance.random(
        field, params, Random(derive_seed(opts["seed"], "psdmm-instance"))
    )
    share_noise = psdmm_mod.PsdmmNoise.random(
        field, params, Random(derive_seed(opts["seed"], "psdmm-share-noise"))
    )
    query_noise = psdmm_mod.PsdmmNoise.random(
        field, params, Random(derive_seed(opts["seed"], "psdmm-query-noise"))
    )
    theta = int(opts["theta"])
    a_shares = psdmm_mod.share_a(inst, share_noise, points, params)
    b_shares = psdmm_mod.share_b(inst, share_noise, points, params)
    queries = psdmm_mod.psdmm_query(theta, query_noise, points, params)
    answers = [
        psdmm_mod.psdmm_answer(a_shares[n], b_shares[n], queries[n])
        for n in range(params.num_servers)
    ]
    decoded = psdmm_mod.psdmm_decode(answers, points, params)
    expected = [a.mul(inst.b_library[theta - 1]) for a in inst.a_blocks]
    ok = all(g == w for g, w in zip(decoded, expected))
    doc = {
        "scheme": "psdmm",
        "params": {
            "N": params.num_servers, "T": params.privacy, "XA": params.security_a,
            "XB": params.security_b, "M": params.library_size, "Kc": params.code_dim,
            "lam": params.rows_a, "chi": params.inner_dim, "mu": params.cols_b,
            "L": params.layers, "ell": params.block_count,
        },
        "q": field.q,
        "theta": theta,
        "seed": opts["seed"],
        "upload_cost": str(params.upload_cost),
        "download_cost": str(params.download_cost),
        "a_blocks": [m.to_lists() for m in inst.a_blocks],
        "b_library": [m.to_lists() for m in inst.b_library],
        "answers": [[y.to_lists() for y in per_server] for per_server in answers],
        "decoded": [m.to_lists() for m in decoded],
        "ok": ok,
    }
    _write_or_print(json.dumps(doc, sort_keys=True), opts["out"])
    print(
        f"upload {params.upload_cost}, download {params.download_cost}, "
        f"product verified: {ok}",
        file=sys.stderr,
    )
    if not ok:
        raise DecodingFailure("recovered product differs from direct computation")
    return EXIT_OK


def cmd_rates(args) -> int:
    opts = _merged(
        args,
        {
            "scheme": "xstpir", "N": "4..12", "Kc": 2, "X": 1, "T": 1,
            "U": 0, "B": 0, "XA": 1, "XB": 0, "out": None,
        },
    )
    lines = []
    if opts["scheme"] == "xstpir":
        lines.append("N,Kc,X,T,U,B,rate,prior_rate")
        for n in _int_list(opts["N"]):
            try:
                p = derive_params(
                    n, int(opts["Kc"]), int(opts["X"]), int(opts["T"]),
                    int(opts["U"]), int(opts["B"]), 1,
                )
            except InfeasibleParamsError:
                continue
            lines.append(
                f"{n},{p.code_dim},{p.security},{p.privacy},{p.max_unresponsive},"
                f"{p.max_byzantine},{achievable_rate(p)},{comparison_rate_prior(p)}"
            )
    elif opts["scheme"] == "psdmm":
        lines.append("K_c,upload,download,prior_download")
        n_values = _int_list(opts["N"])
        if len(n_values) != 1:
            raise ValueError("psdmm rates need a single --N")
        for rep in psdmm_mod.cost_hull(
            n_values[0], int(opts["T"]), int(opts["XA"]), int(opts["XB"])
        ):
            prior = rep.prior_download if rep.prior_download is not None else ""
            lines.append(f"{rep.code_dim},{rep.upload},{rep.download},{prior}")
    else:
        raise ValueError("--scheme must be 'xstpir' or 'psdmm'")
    _write_or_print("\n".join(lines) + "\n", opts["out"])
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="xstpir", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("retrieve", parents=[], help="run one retrieval session")
    _add_xstpir_flags(sp)
    sp.add_argument("--unresponsive", help="comma list of silent server indices")
    sp.add_argument("--byzantine", help="comma list of corrupted server indices")
    sp.add_argument("--policy", choices=CORRUPTION_POLICIES, help="corruption policy")
    sp.set_defaults(func=cmd_retrieve)

    sp = sub.add_parser("sweep", help="grid or adversary-placement sweeps")
    for flag in ("--N", "--Kc", "--X", "--T", "--U", "--B", "--K"):
        sp.add_argument(flag, help="comma list / a..b range")
    sp.add_argument("--mode", choices=("honest", "placements"))
    sp.add_argument("--policies", help="comma list of corruption policies")
    sp.add_argument("--draws", type=int, help="corruption draws per placement")
    sp.add_argument("--seeds", type=int, help="number of master seeds (0..n-1)")
    sp.add_argument("--config", help="JSON config file")
    sp.add_argument("--out", help="CSV output file")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("audit", help="exact distribution-equality audits")
    _add_xstpir_flags(sp, with_theta=False)
    sp.add_argument("--target", choices=("storage", "privacy"))
    sp.add_argument("--colluding", help="comma list of colluding server indices")
    sp.add_argument("--thetas", help="two candidate indices for the privacy audit")
    sp.add_argument(
        "--expect-fail", dest="expect_fail", action="store_const", const=True,
        help="exit 0 even on a FAIL verdict (tightness demonstrations)",
    )
    sp.set_defaults(func=cmd_audit)

    sp = sub.add_parser("psdmm", help="private secure matrix multiplication demo")
    for flag in ("--N", "--T", "--XA", "--XB", "--M", "--Kc", "--lam", "--chi", "--mu",
                 "--theta", "--seed", "--q"):
        sp.add_argument(flag, type=int)
    sp.add_argument("--config", help="JSON config file")
    sp.add_argument("--out", help="output file")
    sp.set_defaults(func=cmd_psdmm)

    sp = sub.add_parser("rates", help="rate / cost tables as CSV")
    sp.add_argument("--scheme", choices=("xstpir", "psdmm"))
    sp.add_argument("--N", help="server counts (comma list / a..b range)")
    for flag in ("--Kc", "--X", "--T", "--U", "--B", "--XA", "--XB"):
        sp.add_argument(flag, type=int)
    sp.add_argument("--config", help="JSON config file")
    sp.add_argument("--out", help="CSV output file")
    sp.set_defaults(func=cmd_rates)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DecodingFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DECODING
    except (InfeasibleParamsError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONSTRAINT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
