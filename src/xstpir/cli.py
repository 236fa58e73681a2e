"""Command-line frontend: retrieve, sweep, audit, psdmm, rates.

Every key of a JSON config file (``--config``) is a flag, named without its
dashes (``expect_fail`` is ``--expect-fail``), with the flag's type, choices
and default.  A key must name a flag exactly, since only the command line
takes abbreviations; any other key exits 1, as a bad flag does.  ``true``
is the bare flag, ``false`` and ``null`` leave it out, and flags given on
the command line override the file.  Exit codes: 0 success or expected-fail
mode, 1 constraint violation, 2 decoding/guarantee failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from random import Random

from .audit import AuditConfig, audit_all
from .field import PrimeField
from .protocol import (
    InfeasibleParamsError,
    ProtocolParams,
    achievable_rate,
    comparison_rate_prior,
    default_field,
    default_points,
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

_HELP = {
    "N": "server count", "Kc": "MDS storage code dimension", "X": "storage-security level",
    "T": "query-privacy level", "U": "unresponsive server count",
    "B": "Byzantine server bound", "K": "message count",
    "theta": "desired message (or library block) index, 1-based", "seed": "master seed",
    "q": "prime field size override (q >= L+N)", "XA": "security level of the A shares",
    "XB": "security level of the B library (0: public)", "M": "library size",
    "lam": "rows of each A block", "chi": "columns of A, rows of B", "mu": "columns of B",
}


class _Parser(argparse.ArgumentParser):
    """argparse that shows every default and exits with the constraint-violation status."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, formatter_class=argparse.ArgumentDefaultsHelpFormatter, **kwargs)

    def error(self, message):
        self.exit(EXIT_CONSTRAINT, f"{self.prog}: error: {message}\n")


def _int_list(text: str) -> list[int]:
    """Comma list and/or 'a..b' ranges: '4,6..8' -> [4, 6, 7, 8]."""
    out: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ".." in part:
            lo, hi = map(int, part.split(".."))
            if hi < lo:
                raise ValueError(f"empty range {part!r}")
            out.extend(range(lo, hi + 1))
        else:
            out.append(int(part))
    return out


def _config_flags(path: str, dests, error) -> list[str]:
    """The config file's keys as flags: ``true`` bare, ``false``/``null`` left out.

    A key whose flag is not one of ``dests`` goes to ``error``: argparse's
    prefix matching would take ``see`` for ``--seed`` and ``h`` for ``--help``.
    """
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config file must hold a JSON object")
    flags = []
    for key, value in cfg.items():
        if key.replace("-", "_") not in dests:
            error(f"unknown config key {key!r}")
        flag = "--" + key.replace("_", "-")
        if value is True:
            flags.append(flag)
        elif value is not None and value is not False:
            flags.append(f"{flag}={value}")
    return flags


def _field_for(params, q):
    """The default field, or GF(q) for a prime override; ``default_points`` checks q >= L + N."""
    if q is None:
        return default_field(params)
    return PrimeField(q)  # rejects non-prime q


def _protocol_params(args) -> ProtocolParams:
    return ProtocolParams(args.N, args.Kc, args.X, args.T, args.U, args.B, args.K)


def _write_or_print(text: str, path: str | None):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        print(text)


def cmd_retrieve(args) -> int:
    params = _protocol_params(args)
    field = _field_for(params, args.q)
    adversary = AdversaryConfig(
        tuple(args.unresponsive),
        tuple(args.byzantine),
        args.policy,
        seed=derive_seed(args.seed, "corruption"),
    )
    transcript = run_session(params, adversary, args.theta, args.seed, field)
    _write_or_print(transcript.to_json(), args.out)
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
    grid = params_grid(args.N, args.Kc, args.X, args.T, args.U, args.B, args.K)
    summary = sweep(
        grid,
        mode=args.mode,
        policies=tuple(args.policies.split(",")),
        draws=args.draws,
        seeds=tuple(range(args.seeds)),
    )
    _write_or_print(summary.to_csv(), args.out)
    print(
        f"{summary.total_sessions} sessions, all passed: {summary.all_passed}",
        file=sys.stderr,
    )
    return EXIT_OK if summary.all_passed else EXIT_DECODING


def cmd_audit(args) -> int:
    params = _protocol_params(args)
    points = default_points(params, _field_for(params, args.q))
    target = "storage-security" if args.target.startswith("storage") else "query-privacy"
    verdict = audit_all(AuditConfig(params, tuple(args.colluding), target), points)
    _write_or_print(verdict.to_json(), args.out)
    if verdict.passed or args.expect_fail:
        return EXIT_OK
    raise DecodingFailure("audit reported a distribution mismatch")


def cmd_psdmm(args) -> int:
    params = psdmm_mod.PsdmmParams(
        args.N, args.T, args.XA, args.XB, args.M, args.lam, args.chi, args.mu, args.Kc
    )
    field = _field_for(params, args.q)
    points = psdmm_mod.default_points(params, field)
    inst = psdmm_mod.PsdmmInstance.random(
        field, params, Random(derive_seed(args.seed, "psdmm-instance"))
    )
    noise = psdmm_mod.PsdmmNoise.random(
        field, params, Random(derive_seed(args.seed, "psdmm-noise"))
    )
    theta = args.theta
    a_shares = psdmm_mod.share_a(inst, noise, points, params)
    b_shares = psdmm_mod.share_b(inst, noise, points, params)
    queries = psdmm_mod.psdmm_query(theta, noise, points, params)
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
        "seed": args.seed,
        "upload_cost": str(params.upload_cost),
        "download_cost": str(params.download_cost),
        "a_blocks": [m.data for m in inst.a_blocks],
        "b_library": [m.data for m in inst.b_library],
        "answers": [[y.data for y in per_server] for per_server in answers],
        "decoded": [m.data for m in decoded],
        "ok": ok,
    }
    _write_or_print(json.dumps(doc, sort_keys=True), args.out)
    print(
        f"upload {params.upload_cost}, download {params.download_cost}, "
        f"product verified: {ok}",
        file=sys.stderr,
    )
    if not ok:
        raise DecodingFailure("recovered product differs from direct computation")
    return EXIT_OK


def cmd_rates(args) -> int:
    lines = []
    if args.scheme == "xstpir":
        lines.append("N,Kc,X,T,U,B,rate,prior_rate")
        for n in args.N:
            try:
                p = ProtocolParams(n, args.Kc, args.X, args.T, args.U, args.B, 1)
            except InfeasibleParamsError:
                continue
            lines.append(
                f"{n},{p.code_dim},{p.security},{p.privacy},{p.max_unresponsive},"
                f"{p.max_byzantine},{achievable_rate(p)},{comparison_rate_prior(p)}"
            )
    else:
        lines.append("K_c,upload,download,prior_download")
        if len(args.N) != 1:
            raise ValueError("psdmm rates need a single --N")
        for rep in psdmm_mod.cost_hull(args.N[0], args.T, args.XA, args.XB):
            prior = rep.prior_download if rep.prior_download is not None else ""
            lines.append(f"{rep.code_dim},{rep.upload},{rep.download},{prior}")
    _write_or_print("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _add_flags(sp, defaults: dict, kind=int):
    """One flag per key, with its default, its type and a help line from ``_HELP``."""
    listed = " (comma list / a..b range)" if kind is _int_list else ""
    for flag, default in defaults.items():
        sp.add_argument(f"--{flag}", type=kind, default=default, help=_HELP[flag] + listed)


def build_parser() -> _Parser:
    parser = _Parser(prog="xstpir", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override its values")
    common.add_argument("--out", help="output file, else stdout")
    scheme = dict(N=4, Kc=2, X=1, T=1, U=0, B=0, K=2)

    sp = sub.add_parser("retrieve", parents=[common], help="run one retrieval session")
    _add_flags(sp, dict(scheme, theta=1, seed=0, q=None))
    sp.add_argument("--unresponsive", type=_int_list, default="",
                    help="comma list of silent server indices")
    sp.add_argument("--byzantine", type=_int_list, default="",
                    help="comma list of corrupted server indices")
    sp.add_argument("--policy", choices=CORRUPTION_POLICIES, default="random",
                    help="corruption policy")
    sp.set_defaults(func=cmd_retrieve)

    sp = sub.add_parser("sweep", parents=[common], help="grid or adversary-placement sweeps")
    _add_flags(sp, dict(N="4", Kc="1", X="0", T="1", U="0", B="0", K="2"), _int_list)
    sp.add_argument("--mode", choices=("honest", "placements"), default="honest",
                    help="honest grid, or every adversary placement")
    sp.add_argument("--policies", default="random", help="comma list of corruption policies")
    sp.add_argument("--draws", type=int, default=1, help="corruption draws per placement")
    sp.add_argument("--seeds", type=int, default=1, help="number of master seeds (0..n-1)")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("audit", parents=[common], help="exact audits of every library or index")
    _add_flags(sp, dict(scheme, q=None))
    sp.add_argument("--target", default="storage",
                    choices=("storage", "privacy", "storage-security", "query-privacy"),
                    help="storage secrecy or query privacy")
    sp.add_argument("--colluding", type=_int_list, default="1",
                    help="comma list of colluding server indices")
    sp.add_argument("--expect-fail", action="store_true",
                    help="exit 0 even on a FAIL verdict (tightness demonstrations)")
    sp.set_defaults(func=cmd_audit)

    sp = sub.add_parser("psdmm", parents=[common], help="private secure matrix multiplication demo")
    _add_flags(sp, dict(N=4, T=1, XA=1, XB=0, M=2, Kc=1, lam=2, chi=2, mu=2))
    _add_flags(sp, dict(theta=1, seed=0, q=None))
    sp.set_defaults(func=cmd_psdmm)

    sp = sub.add_parser("rates", parents=[common], help="rate / cost tables as CSV")
    sp.add_argument("--scheme", choices=("xstpir", "psdmm"), default="xstpir",
                    help="retrieval rates, or the PSDMM cost hull at one N")
    _add_flags(sp, dict(N="4..12"), _int_list)
    _add_flags(sp, dict(Kc=2, X=1, T=1, U=0, B=0, XA=1, XB=0))
    sp.set_defaults(func=cmd_rates)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:  # re-parse with the file's flags first, so explicit flags win
            at = argv.index(args.command) + 1
            flags = _config_flags(args.config, vars(args), parser.error)
            args = parser.parse_args(argv[:at] + flags + argv[at:])
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
