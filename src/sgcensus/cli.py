"""Command-line front end.

Four subcommands: enumerate streams or counts a genus layer, classify
reports every invariant of a single semigroup as JSON, census writes
per-genus statistics to CSV or JSON lines, verify runs one of the
exhaustive cross-check suites.  Results go to standard output,
diagnostics to standard error.

Exit codes: 0 success, 1 verification failure, 2 usage, 3 resource
refusal, 4 invalid gap set, 5 unwritable output path, 6 checkpoint
mismatch.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import checks, enumeration
from .buchweitz import DEFAULT_N_CAP, classify_buchweitz
from .census import (
    DEFAULT_EPSILON,
    CensusConfig,
    CheckpointMismatchError,
    komeda_compare,
    replacing,
    run_census,
    write_csv,
    write_jsonl,
)
from .classify import FrobeniusClass, eisenbud_harris, frobenius_class, type_ak
from .core import InvalidGapSetError, Semigroup, SemigroupError
from .enumeration import ResourceLimitError

THREADS_ENV = "SGCENSUS_THREADS"

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_BAD_GAPS = 4
EXIT_UNWRITABLE = 5
EXIT_CHECKPOINT = 6


def parse_int_list(text: str) -> list[int]:
    """Comma-separated integers with ".." ranges, e.g. "1..12,19,21"."""
    out: list[int] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if ".." in token:
            lo_s, hi_s = token.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
            if hi < lo:
                raise ValueError(f"empty range {token!r}")
            out.extend(range(lo, hi + 1))
        else:
            out.append(int(token))
    if not out:
        raise ValueError("empty list")
    return out


def _int_list_arg(text: str) -> list[int]:
    try:
        return parse_int_list(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a fraction: {text!r} ({exc})")


def _default_threads() -> int:
    raw = os.environ.get(THREADS_ENV, "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _threads(args: argparse.Namespace) -> int:
    """--threads, or SGCENSUS_THREADS read at the time of the call."""
    return _default_threads() if args.threads is None else args.threads


def _emit_line(s: Semigroup, mode: str) -> str:
    if mode == "gaps":
        return ",".join(map(str, s.gaps()))
    if mode == "gens":
        return ",".join(map(str, s.minimal_generators()))
    # kunz: the naturals carry no coordinates; emit an empty line
    if s.multiplicity == 1:
        return ""
    return ",".join(map(str, s.kunz_vector().coordinates))


def cmd_enumerate(args: argparse.Namespace) -> int:
    genus = args.genus
    if args.count_only:
        counts = enumeration.mfg_counts(genus)
        print(sum(n for (m, f, g), n in counts.items() if g == genus))
        return EXIT_OK

    def visit(node) -> None:
        s = node.semigroup
        if s.genus == genus:
            print(_emit_line(s, args.emit))

    enumeration.enumerate_by_genus(genus, visit)
    return EXIT_OK


def cmd_classify(args: argparse.Namespace) -> int:
    if args.gaps is not None:
        s = Semigroup.from_gaps(sorted(set(args.gaps)))
    else:
        s = Semigroup.from_generators(args.gens)
    record: dict = {
        "gaps": sorted(s.gaps()),
        "generators": list(s.minimal_generators()),
        "multiplicity": s.multiplicity,
        "frobenius": s.frobenius,
        "genus": s.genus,
        "weight": s.weight(),
        "nb_cap": args.nb_cap,
    }
    if s.multiplicity == 1:
        record["class"] = None
        record["kunz"] = None
    else:
        record["class"] = frobenius_class(s).value
        record["kunz"] = list(s.kunz_vector().coordinates)
    record["eisenbud_harris"] = eisenbud_harris(s)
    record["buchweitz"] = classify_buchweitz(s, n_cap=args.nb_cap).as_dict()
    if record["class"] == FrobeniusClass.MID.value:
        t = type_ak(s)
        record["type_ak"] = {"k": t.k, "a": sorted(t.a)}
    else:
        record["type_ak"] = None
    print(json.dumps(record, separators=(",", ":")))
    return EXIT_OK


def cmd_census(args: argparse.Namespace) -> int:
    cfg = CensusConfig(
        g_max=args.gmax,
        epsilon=args.eps,
        nb_n_cap=args.nb_cap,
        threads=_threads(args),
        checkpoint_path=args.checkpoint,
    )
    write = write_csv if args.format == "csv" else write_jsonl
    # opened before the walk: an unwritable path fails at once, and an
    # existing file is replaced only once the rows are written
    with replacing(args.out) as fh:
        rows = run_census(cfg)
        write(rows, fh)
    summary = {
        "g_max": cfg.g_max,
        **cfg.row_settings(),
        "threads": cfg.threads,
        "checkpoint": cfg.checkpoint_path,
        "config_hash": cfg.config_hash(),
        "rows": len(rows),
        "out": args.out,
        "format": args.format,
    }
    print(json.dumps(summary, separators=(",", ":")))
    return EXIT_OK


# each verify suite: its default g_max, and its check, which takes
# (g_max, threads) and returns the failures
_SUITES = {
    "komeda": (25, lambda g_max, threads: komeda_compare(
        run_census(CensusConfig(g_max=g_max, threads=threads)))),
    "qbinom": (18, lambda g_max, _: checks.qbinom_bijection_check(g_max)),
    "recurrence": (20, lambda g_max, _: checks.recurrence_check(g_max)),
    "kunz": (15, lambda g_max, _: checks.kunz_equivalence_check(g_max)),
    "fib": (22, lambda g_max, _: checks.f2m_fibonacci_check(g_max)),
    "zhao": (14, lambda g_max, _: checks.zhao_domination_check(g_max)),
    "weightmid": (14, lambda g_max, _: checks.mid_weight_check(g_max)),
}


def cmd_verify(args: argparse.Namespace) -> int:
    default_gmax, check = _SUITES[args.suite]
    g_max = args.gmax if args.gmax is not None else default_gmax
    try:
        failures = check(g_max, _threads(args))
    except ValueError as exc:
        print(json.dumps({"suite": args.suite, "g_max": g_max, "ok": False,
                          "error": str(exc)}))
        return EXIT_VERIFY_FAIL
    result = {
        "suite": args.suite,
        "g_max": g_max,
        "ok": not failures,
        "failure_count": len(failures),
    }
    if failures:
        result["first_failure"] = repr(failures[0])
    print(json.dumps(result))
    return EXIT_OK if not failures else EXIT_VERIFY_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgcensus",
        description="enumerate, classify and take censuses of numerical semigroups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="stream or count one genus layer")
    p_enum.add_argument("--genus", type=int, required=True)
    p_enum.add_argument("--emit", choices=("gaps", "gens", "kunz"), default="gaps")
    p_enum.add_argument("--count-only", action="store_true")
    p_enum.set_defaults(func=cmd_enumerate)

    p_cls = sub.add_parser("classify", help="full report for one semigroup")
    src = p_cls.add_mutually_exclusive_group(required=True)
    src.add_argument("--gaps", type=_int_list_arg,
                     help='gap set, e.g. "1..12,19,21,24,25"')
    src.add_argument("--gens", type=_int_list_arg, help='generators, e.g. "3,5,7"')
    p_cls.add_argument("--nb-cap", type=int, default=DEFAULT_N_CAP)
    p_cls.set_defaults(func=cmd_classify)

    p_cen = sub.add_parser("census", help="per-genus statistics table")
    p_cen.add_argument("--gmax", type=int, required=True)
    p_cen.add_argument("--out", required=True)
    p_cen.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p_cen.add_argument("--threads", type=int, default=None)
    p_cen.add_argument("--checkpoint")
    p_cen.add_argument("--eps", type=_fraction_arg, default=DEFAULT_EPSILON)
    p_cen.add_argument("--nb-cap", type=int, default=DEFAULT_N_CAP)
    p_cen.set_defaults(func=cmd_census)

    p_ver = sub.add_parser("verify", help="run an exhaustive cross-check suite")
    p_ver.add_argument("suite", choices=sorted(_SUITES))
    p_ver.add_argument("--gmax", type=int, default=None)
    p_ver.add_argument("--threads", type=int, default=None)
    p_ver.set_defaults(func=cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses: built on the first call, then kept for
    the life of the process."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except InvalidGapSetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_GAPS
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except CheckpointMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECKPOINT
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_UNWRITABLE
    except (SemigroupError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
