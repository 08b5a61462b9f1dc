"""Command line front end.

Every subcommand prints one machine-readable report on stdout (JSON by
default, CSV or plain text via --format) and writes diagnostics to stderr.
Exit codes: 0 success, 1 a mathematical check failed, 2 usage or
precondition error, or an internal fault (an invariant the program checks
on itself broke), reported on stderr as "internal error: ...".  Rationals
cross the boundary as exact strings 'n/d'; no floating point is used
anywhere.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from math import gcd

from .checks import registry, run_check
from .exactmath import format_rational, parse_rational, vp
from .psl2 import (
    DEFAULT_BUDGET,
    InertiaType,
    group_params,
    inertia_candidates,
    select_triple,
    verify_subgroup_claims,
)
from .ramification import (
    JumpSequence,
    base_sigma,
    enumerate_admissible,
    genus,
    is_admissible,
)
from .tails import infer_inertia, solve_tail_configs
from .towers import (
    inertia_type_of,
    oracle_jumps,
    oracle_supported,
    predicted_jumps,
    read_tower_spec,
    verify_deformation,
    write_tower_spec,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

# The most admissible sequences, by the a-priori bound of _enumeration_bound,
# that one `enumerate` request may ask for; a larger request is refused.
ENUMERATION_LIMIT = 100_000

# The largest r of an inertia type Z/p^r x| Z/m a request may name.  Its
# label and group order hold p^r, which is built before any other check, so
# r is refused first: --r 10^12 would build 3^(10^12).  At this limit p^r has
# at most 100 times the digits of p.
R_LIMIT = 100


def _parse_jumps(text: str) -> JumpSequence:
    return JumpSequence.from_strings([part for part in text.split(",") if part.strip()])


def _inertia_from_args(args, r: int) -> InertiaType:
    if r > R_LIMIT:
        raise ValueError(f"r = {r} exceeds the limit {R_LIMIT}")
    m_I = args.mI if args.mI is not None else gcd(args.m, args.p - 1)
    return InertiaType(p=args.p, r=r, m=args.m, m_I=m_I)


# ---------------------------------------------------------------------------
# Handlers: each returns (payload, rows, exit_code); main adds the payload's
# "command".  The CSV rows are a list already in the payload, or None.


def _cmd_params(args):
    gp = group_params(args.p, args.ell)
    payload = {
        "check": "group-invariants",
        "statement": "order = ell(ell^2 - 1)/2; a = v_p(ell^2 - 1); m_G = 2 when a >= 1",
        "p": gp.p,
        "ell": gp.ell,
        "order": gp.order,
        "a": gp.a,
        "m_G": gp.m_G,
    }
    return payload, None, EXIT_OK


def _cmd_triple(args):
    triple = select_triple(args.p, args.ell)
    payload = {
        "check": "class-triple",
        "statement": "three classes whose quotient-group orders have p-valuations (0, a-1, a)",
        "p": args.p,
        "ell": args.ell,
        **triple.to_dict(),
        "vp_chain": [vp(e, args.p) for e in triple.psl2_indices],
    }
    return payload, payload["classes"], EXIT_OK


def _cmd_candidates(args):
    gp = group_params(args.p, args.ell)
    payload = {
        "check": "inertia-candidates",
        "statement": "cyclic Z/p^r and dihedral D_{p^r} for 1 <= r <= a",
        "p": args.p,
        "ell": args.ell,
        "a": gp.a,
        "candidates": [c.to_dict() for c in inertia_candidates(gp)],
    }
    return payload, payload["candidates"], EXIT_OK


def _cmd_admissible(args):
    seq = _parse_jumps(args.jumps)
    inertia = _inertia_from_args(args, r=len(seq))
    verdict = is_admissible(inertia, seq)
    payload = {
        "check": "admissibility-conditions-a-d",
        "statement": "jumps in (1/m)N; gcd(m, m u_1) = m/m_I; growth by p or prime-to-p; "
        "constant class mod m",
        "inertia": inertia.to_dict(),
        "jumps": seq.to_strings(),
        **verdict.to_dict(),
    }
    return payload, payload["conditions"], EXIT_OK


def _enumeration_bound(inertia: InertiaType, bound) -> int:
    """An upper bound, known before enumerating, on the admissible sequences
    with u_r <= bound: each m u_i is a positive integer at most
    floor(m bound / p^(r-i)), so there are at most the product of those caps
    (and the enumeration loops at most r times that often).  The product
    stops at 0 or once past ENUMERATION_LIMIT, so a huge bound is cheap."""
    cap, product = max(int(inertia.m * bound), 0), 1
    for _ in range(inertia.r):
        product *= cap
        if product == 0 or product > ENUMERATION_LIMIT:
            break
        cap //= inertia.p
    return product


def _cmd_enumerate(args):
    inertia = _inertia_from_args(args, r=args.r)
    bound = parse_rational(args.bound)
    count_bound = _enumeration_bound(inertia, bound)
    payload = {
        "check": "admissible-enumeration",
        "statement": "all admissible sequences with u_r <= bound, lexicographic",
        "inertia": inertia.to_dict(),
        "bound": format_rational(bound),
    }
    if count_bound > ENUMERATION_LIMIT:
        payload["status"] = "refused"
        payload["limit"] = ENUMERATION_LIMIT
        payload["reason"] = (
            f"the a-priori bound on the sequence count exceeds the enumeration limit"
            f" {ENUMERATION_LIMIT}; sequences not enumerated"
        )
        return payload, None, EXIT_OK
    seqs = enumerate_admissible(inertia, bound)
    payload["count"] = len(seqs)
    payload["sequences"] = [s.to_strings() for s in seqs]
    rows = [{"index": i, "jumps": ",".join(s)} for i, s in enumerate(payload["sequences"])]
    return payload, rows, EXIT_OK


def _cmd_genus(args):
    seq = _parse_jumps(args.jumps)
    inertia = _inertia_from_args(args, r=args.r if args.r is not None else len(seq))
    result = genus(args.order, inertia, seq)
    payload = {
        "check": "genus-and-divisor-degree",
        "statement": "deg R = m p^r - 1 + (p-1) m sum(p^(i-1) u_i); "
        "genus = 1 - N + N deg(R)/(2 m p^r)",
        "order": args.order,
        "inertia": inertia.to_dict(),
        "jumps": seq.to_strings(),
        **result.to_dict(),
    }
    return payload, None, EXIT_OK


def _cmd_base_sigma(args):
    inertia = _inertia_from_args(args, r=args.r)
    sigma = base_sigma(inertia, args.ell)
    payload = {
        "check": "base-filtration",
        "statement": "(3/2) for D_p; (2) or (3) for Z/p depending on ell mod 8; otherwise unknown",
        "inertia": inertia.to_dict(),
        "ell": args.ell,
        "sigma": sigma.to_strings() if sigma is not None else "unknown",
    }
    return payload, None, EXIT_OK


def _cmd_tower_predict(args):
    spec = read_tower_spec(args.spec)
    payload = {
        "check": "tower-jump-recurrence",
        "statement": "u_1 = deg(x_1)/m; u_i = max(deg(x_i)/m, p u_{i-1})",
        "spec": spec.to_dict(),
        **spec.verdict.to_dict(),
    }
    if spec.verdict.valid:
        payload["jumps"] = predicted_jumps(spec).to_strings()
        payload["inertia"] = inertia_type_of(spec).to_dict()
        payload["oracle_supported"] = oracle_supported(spec)
        if not oracle_supported(spec):
            payload["note"] = "recurrence output for r >= 3 is unverified by the oracle"
    return payload, None, EXIT_OK


def _cmd_tower_oracle(args):
    spec = read_tower_spec(args.spec)
    jumps = oracle_jumps(spec)
    payload = {
        "check": "tower-jump-oracle",
        "statement": "lower jumps from layerwise reduction, converted to upper numbering",
        "spec": spec.to_dict(),
        "jumps": jumps.to_strings(),
    }
    code = EXIT_OK
    if spec.verdict.valid:
        predicted = predicted_jumps(spec)
        payload["agrees_with_recurrence"] = predicted == jumps
        if predicted != jumps:
            payload["recurrence_jumps"] = predicted.to_strings()
            code = EXIT_CHECK_FAILED
    return payload, None, code


def _cmd_deform(args):
    spec = read_tower_spec(args.spec)
    target = _parse_jumps(args.target)
    verdict = verify_deformation(spec, target, args.scale)
    if args.out:
        write_tower_spec(verdict.deformed, args.out)
    payload = {
        "check": "jump-deformation",
        "statement": "add scale*x^(m u_i') to x_i when u_i' > p u_{i-1}' and u_i' > u_i",
        "spec": spec.to_dict(),
        "deformed": verdict.deformed.to_dict(),
        **verdict.to_dict(),
    }
    return payload, None, EXIT_OK if verdict.ok else EXIT_CHECK_FAILED


def _cmd_tails(args):
    bound = parse_rational(args.bound) if args.bound else None
    configs = solve_tail_configs(
        args.mG,
        n_prim=args.prim,
        n_new_min=args.new_min,
        n_new_max=args.new_max,
        sigma_bound=bound,
    )
    payload = {
        "check": "tail-configurations",
        "statement": "sum over new tails (sigma - 1) plus sum over primitive tails sigma = 1",
        "m_G": args.mG,
        "count": len(configs),
        "configurations": [c.to_dict() for c in configs],
    }
    rows = [
        {"index": i, "tails": ";".join(f"{t['kind']}:{t['sigma']}" for t in c)}
        for i, c in enumerate(payload["configurations"])
    ]
    return payload, rows, EXIT_OK


def _cmd_infer(args):
    sigma = parse_rational(args.sigma)
    inference = infer_inertia(sigma, args.p, args.mG)
    payload = {
        "check": "inertia-from-invariant",
        "statement": "r allowed when p^(r-1)/m_G <= sigma; integer sigma permits abelian inertia",
        "sigma": format_rational(sigma),
        "p": args.p,
        "m_G": args.mG,
        **inference.to_dict(),
    }
    return payload, None, EXIT_OK


def _cmd_verify_group(args):
    report = verify_subgroup_claims(args.p, args.ell, budget=args.budget)
    payload = {
        "check": "subgroup-claims",
        "statement": "dihedral existence, dihedral uniqueness among semidirect forms, "
        "quasi-p subgroups above a dihedral",
        **report.to_dict(),
    }
    code = EXIT_OK if report.status == "refused" or report.all_passed else EXIT_CHECK_FAILED
    return payload, payload.get("claims"), code  # claims only when checked


def _cmd_check_all(args):
    results = [run_check(spec) for spec in registry(args.budget_subgroup)]
    for r in results:
        over = f"  over budget ({r.budget_seconds:g} s)" if r.seconds > r.budget_seconds else ""
        print(f"{r.status:>4}  {r.check_id}  ({r.seconds:.2f}s){over}", file=sys.stderr)
    # timings and overruns go to stderr only, keeping the data stream deterministic
    payload = {
        "check": "verification-suites",
        "statement": "every registered suite within its budget",
        "results": [r.to_dict() for r in results],
        "passed": sum(r.status == "pass" for r in results),
        "failed": sum(r.status == "fail" for r in results),
        "skipped": sum(r.status == "skip" for r in results),
    }
    rows = [{"check": r.check_id, "status": r.status} for r in results]
    code = EXIT_OK if payload["failed"] == 0 else EXIT_CHECK_FAILED
    return payload, rows, code


# ---------------------------------------------------------------------------
# Output formatting


def _flatten(value):
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True)
    return value


def render(payload: dict, rows, fmt: str) -> str:
    """The output text, without its final newline.  ValueError if it would
    print an integer past Python's integer-string limit, as a genus can
    from a jump of 4299 digits; its message names the limit, in place of
    Python's hint at a setting no CLI user can reach."""
    try:
        if fmt == "json":
            return json.dumps(payload, sort_keys=True)
        if fmt == "csv":
            records = rows if rows is not None else [payload]
            keys = sorted({k for rec in records for k in rec})
            lines = [",".join(str(_flatten(rec.get(k, ""))) for k in keys) for rec in records]
            return "\n".join([",".join(keys), *lines])
        return "\n".join(f"{key}: {_flatten(payload[key])}" for key in sorted(payload))
    except ValueError as exc:
        if "integer string conversion" not in str(exc):
            raise
        raise ValueError(
            f"the result has an integer of more than {sys.get_int_max_str_digits()} digits"
        ) from None


class _Parser(argparse.ArgumentParser):
    """An argument parser that refuses a command line as every other
    refusal is made: one "error: <message>" line on stderr, exit code 2.
    Subparsers are built from the same class."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"error: {message}\n")


# Every flag's settings, keyed by flag name.  Each subcommand lists its flags
# in order, and _OVERRIDES names the settings where a subcommand differs.
_FLAGS = {
    "--format": dict(choices=("json", "csv", "plain"), default="json", help="output format"),
    "--p": dict(type=int, required=True),
    "--ell": dict(type=int, required=True),
    "--m": dict(type=int, required=True),
    "--mI": dict(type=int, default=None),
    "--jumps": dict(required=True),
    "--r": dict(type=int, default=None),
    "--bound": dict(default=None),
    "--order": dict(type=int, required=True),
    "--spec": dict(required=True),
    "--target": dict(required=True, help="target jumps, comma separated"),
    "--scale": dict(type=int, default=1),
    "--out": dict(default=None, help="write the deformed tower here"),
    "--mG": dict(type=int, required=True),
    "--prim": dict(type=int, required=True),
    "--new-min": dict(type=int, default=0),
    "--new-max": dict(type=int, default=None),
    "--sigma": dict(required=True),
    "--budget": dict(type=int, default=DEFAULT_BUDGET),
    "--budget-subgroup": dict(type=int, default=DEFAULT_BUDGET),
}

_SUBCOMMANDS = {
    "params": "--p --ell",
    "triple": "--p --ell",
    "candidates": "--p --ell",
    "admissible": "--p --m --mI --jumps",
    "enumerate": "--p --m --mI --r --bound",
    "genus": "--order --p --m --mI --r --jumps",
    "base-sigma": "--p --ell --m --mI --r",
    "tower-predict": "--spec",
    "tower-oracle": "--spec",
    "deform": "--spec --target --scale --out",
    "tails": "--mG --prim --new-min --new-max --bound",
    "infer": "--sigma --p --mG",
    "verify-group": "--p --ell --budget",
    "check-all": "--budget-subgroup",
}

_OVERRIDES = {
    ("admissible", "--jumps"): dict(help="comma separated rationals, e.g. 3/2"),
    ("enumerate", "--r"): dict(required=True),
    ("enumerate", "--bound"): dict(required=True),
    ("base-sigma", "--r"): dict(default=1),
    ("tower-predict", "--spec"): dict(help="path to a tower file"),
}


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  It records only the
    subcommand name; main looks its _cmd_* handler up when it dispatches."""
    parser = _Parser(
        prog="wildram",
        description="exact computations for wildly ramified one-point covers",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, flags in _SUBCOMMANDS.items():
        command = sub.add_parser(name)
        for flag in ["--format", *flags.split()]:
            command.add_argument(flag, **{**_FLAGS[flag], **_OVERRIDES.get((name, flag), {})})
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    handler = globals()["_cmd_" + args.subcommand.replace("-", "_")]
    try:
        payload, rows, code = handler(args)
        payload["command"] = args.subcommand
        text = render(payload, rows, args.format)
    except (ValueError, NotImplementedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:  # an invariant the program checks on itself broke
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
