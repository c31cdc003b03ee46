"""Batch front end: analyze arrangements, render reports, run the checks.

Exit codes: 0 all requested checks pass, 1 a mathematical claim failed,
2 usage or IO error.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
from pathlib import Path
from typing import Callable, Iterable, Sequence

from . import __version__
from .arrangement import (
    MAX_RATIONAL_BITS,
    ArrangementError,
    WeightedArrangement,
    lct,
    load_arrangement,
    preset,
)
from .multiplier_ideal import ExpansionTooLargeError, generator_strings
from .sequence import (
    SequenceEntry,
    _entries,
    entry,
    monotonicity_report,
    resolve_claims,
    verify_paper,
)
from .singularity import Relation, compare, lelong, ratio_str


class UsageError(Exception):
    """Bad flags or unusable input files (exit code 2)."""


# Most indices an --indices family or an --m-max range may name; 10^5
# entries take seconds.
MAX_INDICES = 100_000


_ENTRY_CSV_HEADER = ["m", "b", "p", "gamma", "delta", "nu"]

_MD_VERDICTS = {
    Relation.EQUIVALENT: "equivalent",
    Relation.FIRST_MORE_SINGULAR: "more singular (ok)",
    Relation.SECOND_MORE_SINGULAR: "less singular (VIOLATION)",
    Relation.INCOMPARABLE: "incomparable (VIOLATION)",
}


def markdown_table(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """A markdown table; each separator cell is as wide as its padded
    header cell."""
    def line(cells: Sequence) -> str:
        return "| " + " | ".join(str(c) for c in cells) + " |"

    rule = "|" + "|".join("-" * (len(h) + 2) for h in header) + "|"
    return "\n".join([line(header), rule, *(line(r) for r in rows)])


def _exponents(ent: SequenceEntry, md: bool) -> list[str]:
    """The gamma, delta and nu cells of an entry, each exponent printed as
    str(Fraction) prints it."""
    num, den = ent.cls.num, ent.cls.den
    *gamma, delta, nu = [ratio_str(n, den) for n in (*num, sum(num))]
    return [f"({', '.join(gamma)})" if md else ";".join(gamma), delta, nu]


def _entry_csv_row(ent: SequenceEntry) -> list[str]:
    return [str(ent.m), ";".join(str(v) for v in ent.ideal.b),
            str(ent.ideal.p), *_exponents(ent, md=False)]


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, holding the arguments of `command`
    alone when it names one (the top-level help lists only the help lines)
    and every subcommand's arguments otherwise."""
    parser = argparse.ArgumentParser(
        prog="pshlab",
        description=(
            "Multiplier ideals, singularity classes and approximation-"
            "sequence monotonicity for weighted line arrangements in C^2."
        ),
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, add_arguments, help_line) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        if command in (None, name):
            add_arguments(p)
    return parser


def _add_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", default=None,
                   help="built-in arrangement: theorem1, smooth, point")
    p.add_argument("--file", default=None, metavar="JSON",
                   help="arrangement file (see README for the schema)")


def _add_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=["json", "csv", "md"],
                   default="json")
    p.add_argument("--output", default=None, metavar="PATH",
                   help="write the report here instead of stdout")
    p.add_argument("--no-timestamp", action="store_true",
                   help="omit the generated_at field from JSON reports")


def _analyze_arguments(p: argparse.ArgumentParser) -> None:
    _add_source(p)
    p.add_argument("--m", type=int, nargs="+", default=None)
    p.add_argument("--m-max", type=int, default=None)
    _add_output(p)


def _sequence_arguments(p: argparse.ArgumentParser) -> None:
    _add_source(p)
    p.add_argument("--m-max", type=int, default=12)
    p.add_argument("--indices", default=None,
                   help="pow2 | 3k+2 | comma list, checked as a subsequence")
    p.add_argument("--k-max", type=int, default=10,
                   help="range of k for pow2 / 3k+2 index families")
    _add_output(p)


def _compare_arguments(p: argparse.ArgumentParser) -> None:
    _add_source(p)
    p.add_argument("--m1", type=int, required=True)
    p.add_argument("--m2", type=int, required=True)
    _add_output(p)


def _lct_arguments(p: argparse.ArgumentParser) -> None:
    _add_source(p)
    _add_output(p)


def _verify_paper_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--claims", nargs="+", default=None,
                   help="claim ids or aliases; default runs all")
    _add_output(p)


def _bergman_arguments(p: argparse.ArgumentParser) -> None:
    _add_source(p)
    p.add_argument("--m", type=int, default=None,
                   help="single index: ray-slope estimate (with --rays)")
    p.add_argument("--m1", type=int, default=None)
    p.add_argument("--m2", type=int, default=None)
    # the flags of one mode default to None here, so that _cmd_bergman can
    # refuse them in the other mode; their defaults are in _SCAN_FLAGS and
    # _RAY_FLAGS
    p.add_argument("--curve", default=None,
                   help='"x=y" or "dir:re,im,re,im" for a fixed ray')
    p.add_argument("--tmin", type=float, default=None)
    p.add_argument("--tmax", type=float, default=None)
    p.add_argument("--points", type=int, default=None)
    p.add_argument("--samples", type=int, default=100_000,
                   help="Monte Carlo sample size recorded in the report "
                        "(>= 10000); the Gram itself is deterministic")
    p.add_argument("--seed", type=int, default=42,
                   help="seed of the slope rays")
    p.add_argument("--max-degree", type=int, default=12)
    p.add_argument("--rays", type=int, default=None)
    p.add_argument("--slope-tol", type=float, default=None,
                   help="|slope| below this counts as flat")
    p.add_argument("--audit-gram", action="store_true", default=None,
                   help="add the Gram the slopes read to the report "
                        "(--format json only)")
    _add_output(p)


def _resolve_arrangement(args) -> WeightedArrangement:
    if getattr(args, "preset", None) and getattr(args, "file", None):
        raise UsageError("use either --preset or --file, not both")
    if getattr(args, "file", None):
        return load_arrangement(args.file)
    return preset(getattr(args, "preset", None) or "theorem1")


_NON_FINITE = "the report holds a non-finite number (NaN or infinity)"


def _emit(args, to_json: Callable[[], dict],
          to_csv: Callable[[], list[list]] | None = None,
          to_markdown: Callable[[], str] | None = None,
          floats: Iterable[float] = ()) -> None:
    """Render the report in the requested format only: each renderer is
    called at most once, and only the one `--format` names.  A report
    whose `floats` hold a NaN or an infinity is refused in every format,
    and so is a JSON payload holding one: nothing is written."""
    if not all(map(math.isfinite, floats)):
        raise UsageError(_NON_FINITE)
    if args.format == "json":
        payload = to_json()
        if not args.no_timestamp:
            from datetime import datetime, timezone

            payload = dict(payload)
            payload["generated_at"] = datetime.now(timezone.utc).isoformat()
        try:
            text = json.dumps(payload, indent=2, sort_keys=True,
                              allow_nan=False) + "\n"
        except ValueError as exc:
            raise UsageError(_NON_FINITE) from exc
    elif args.format == "csv":
        if to_csv is None:
            raise UsageError(f"command {args.command} has no CSV form")
        import csv

        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerows(to_csv())
        text = buffer.getvalue()
    else:
        if to_markdown is None:
            raise UsageError(f"command {args.command} has no markdown form")
        text = to_markdown() + "\n"
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_analyze(args) -> int:
    arr = _resolve_arrangement(args)
    if args.m is not None and args.m_max is not None:
        raise UsageError("use either --m or --m-max")
    if args.m_max is not None:
        if args.m_max < 1:
            raise UsageError("--m-max must be >= 1")
        _check_index_cost(args.m_max, args.m_max.bit_length())
        ms = list(range(1, args.m_max + 1))
    else:
        ms = args.m if args.m else [1]
        _check_index_cost(len(ms), max(m.bit_length() for m in ms))
    if any(m < 1 for m in ms):
        raise UsageError("approximation indices must be >= 1")
    entries = _entries(arr, ms)

    def to_json() -> dict:
        return {
            "command": "analyze",
            "arrangement": arr.describe(),
            "results": [{
                "m": ent.m,
                "ideal": ent.ideal.to_dict(),
                "generators": generator_strings(arr, ent.ideal),
                "class": ent.cls.to_dict(),
                "lelong": str(lelong(ent.cls)),
            } for ent in entries],
        }

    def to_csv() -> list[list]:
        return [_ENTRY_CSV_HEADER] + [_entry_csv_row(ent) for ent in entries]

    def to_markdown() -> str:
        return markdown_table(
            ["m", "ideal (b; p)", "generators", "gamma", "delta", "nu"],
            [[ent.m, f"{list(ent.ideal.b)}; {ent.ideal.p}",
              ", ".join(generator_strings(arr, ent.ideal)),
              *_exponents(ent, md=True)] for ent in entries])

    try:
        _emit(args, to_json, to_csv, to_markdown)
    except ExpansionTooLargeError as exc:
        raise UsageError(str(exc)) from exc
    return 0


def _check_index_cost(count: int, top_bits: int) -> None:
    """Refuse an index family, an --m-max range or a single index by its
    size, before any entry is built."""
    if count > MAX_INDICES:
        raise UsageError(f"{count} indices exceed the cap of {MAX_INDICES}")
    if top_bits > MAX_RATIONAL_BITS:
        raise UsageError(f"an index of {top_bits} bits exceeds the cap of "
                         f"{MAX_RATIONAL_BITS} bits")


def _parse_indices(args) -> list[int] | None:
    if args.indices is None:
        return None
    spec = args.indices.strip().lower()
    k_max = args.k_max
    if k_max < 0:
        raise UsageError("--k-max must be >= 0")
    if spec == "pow2":
        _check_index_cost(k_max, k_max + 1)
        return [2 ** k for k in range(1, k_max + 1)]
    if spec in {"3k+2", "3k2"}:
        _check_index_cost(k_max + 1, (3 * k_max + 2).bit_length())
        return [3 * k + 2 for k in range(0, k_max + 1)]
    try:
        indices = [int(v) for v in spec.split(",") if v.strip()]
    except ValueError as exc:
        raise UsageError(f"cannot parse --indices {args.indices!r}") from exc
    _check_index_cost(len(indices), max((abs(v).bit_length() for v in indices),
                                        default=0))
    return indices


def _cmd_sequence(args) -> int:
    arr = _resolve_arrangement(args)
    if args.m_max < 2:
        raise UsageError("--m-max must be >= 2")
    _check_index_cost(args.m_max, args.m_max.bit_length())
    indices = _parse_indices(args)
    try:
        report = monotonicity_report(arr, args.m_max, indices)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    entries = report.entries

    def to_csv() -> list[list]:
        verdicts = [""] + [c.relation.value for c in report.comparisons]
        return [_ENTRY_CSV_HEADER + ["vs_previous"]] + [
            _entry_csv_row(ent) + [verdict]
            for ent, verdict in zip(entries, verdicts)]

    def to_markdown() -> str:
        verdicts = ["-"] + [_MD_VERDICTS[c.relation] for c in report.comparisons]
        text = markdown_table(
            ["m", "b", "p", "gamma", "delta", "nu", "vs previous"],
            [[ent.m, list(ent.ideal.b), ent.ideal.p,
              *_exponents(ent, md=True), verdict]
             for ent, verdict in zip(entries, verdicts)])
        if report.violations:
            pairs = ", ".join(f"({a},{b})" for a, b in report.violations)
            text += f"\n\nViolating steps: {pairs}"
        v = report.subsequence
        if v is not None:
            text += (f"\n\nSubsequence {list(v.indices[:4])}...: "
                     f"decreasing={v.decreasing}, strictly={v.strictly}, "
                     f"converges={v.converges_to_weight}")
        return text

    _emit(args, lambda: {"command": "sequence", **report.to_dict()},
          to_csv, to_markdown)
    return 0


def _cmd_compare(args) -> int:
    arr = _resolve_arrangement(args)
    if args.m1 < 1 or args.m2 < 1:
        raise UsageError("indices must be >= 1")
    _check_index_cost(2, max(args.m1, args.m2).bit_length())
    e1, e2 = entry(arr, args.m1), entry(arr, args.m2)
    result = compare(e1.cls, e2.cls)

    def to_json() -> dict:
        return {
            "command": "compare",
            "arrangement": arr.describe(),
            "m1": args.m1,
            "m2": args.m2,
            "class1": e1.cls.to_dict(),
            "class2": e2.cls.to_dict(),
            "comparison": result.to_dict(),
        }

    def to_markdown() -> str:
        return (
            f"phi_{args.m1} vs phi_{args.m2}: {result.relation.value}"
            + (
                "\nwitness: " + "; ".join(str(w) for w in result.witnesses)
                if result.witnesses else ""
            )
        )

    _emit(args, to_json, None, to_markdown)
    return 0


def _cmd_lct(args) -> int:
    arr = _resolve_arrangement(args)
    value = lct(arr)
    _emit(
        args,
        lambda: {"command": "lct", "arrangement": arr.describe(),
                 "lct": str(value)},
        lambda: [["lct"], [str(value)]],
        lambda: f"lct = {value}",
    )
    return 0


def _cmd_verify_paper(args) -> int:
    try:
        names = resolve_claims(args.claims)
    except KeyError as exc:
        raise UsageError(str(exc.args[0])) from exc
    report = verify_paper(names)

    def to_csv() -> list[list]:
        return [["claim", "passed"]] + [
            [r.claim_id, str(r.passed)] for r in report.results
        ]

    def to_markdown() -> str:
        return markdown_table(
            ["claim", "status", "description"],
            [[r.claim_id, "PASS" if r.passed else "FAIL", r.description]
             for r in report.results],
        ) + "\n\nOverall: " + ("PASS" if report.all_passed else "FAIL")

    _emit(args, lambda: {"command": "verify-paper", **report.to_dict()},
          to_csv, to_markdown)
    return 0 if report.all_passed else 1


def _parse_curve(spec: str):
    from .bergman import diagonal_curve, ray_curve

    spec = spec.strip().lower()
    if spec in {"x=y", "diag", "diagonal"}:
        return diagonal_curve, "x=y"
    if spec.startswith("dir:"):
        parts = spec[4:].split(",")
        if len(parts) != 4:
            raise UsageError('ray curve must be "dir:re,im,re,im"')
        try:
            values = [float(v) for v in parts]
        except ValueError as exc:
            raise UsageError(f"cannot parse curve {spec!r}") from exc
        if not all(map(math.isfinite, values)):
            raise UsageError(f"curve {spec!r} has a non-finite component")
        direction = (complex(values[0], values[1]),
                     complex(values[2], values[3]))
        return ray_curve(direction), spec
    raise UsageError(f"unknown curve {spec!r}; use x=y or dir:re,im,re,im")


# The flags of each bergman mode, with their defaults.  A flag of the other
# mode would change nothing: it is refused.  A scan's t grid (tmin, tmax,
# points) defaults to bergman.SLOPE_WINDOW.
_SCAN_FLAGS = {"curve": "x=y", "tmin": None, "tmax": None, "points": None,
               "slope_tol": 0.02}
_RAY_FLAGS = {"m": None, "rays": 8, "audit_gram": False}


def _cmd_bergman(args) -> int:
    from .bergman import (SLOPE_WINDOW, DegreeCutoffError, DenseScaleError,
                          QuadratureSpec)

    arr = _resolve_arrangement(args)
    try:
        quad = QuadratureSpec(args.max_degree, args.samples, args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    scan_mode = args.m1 is not None or args.m2 is not None
    if scan_mode and (args.m1 is None or args.m2 is None):
        raise UsageError("curve scans need both --m1 and --m2")
    own, other = ((_SCAN_FLAGS, _RAY_FLAGS) if scan_mode
                  else (_RAY_FLAGS, _SCAN_FLAGS))
    foreign = ["--" + dest.replace("_", "-") for dest in other
               if getattr(args, dest) is not None]
    if foreign:
        raise UsageError(f"{', '.join(foreign)} not used by "
                         + ("a scan (--m1/--m2)" if scan_mode
                            else "ray slopes (--m)"))
    window = dict(zip(("tmin", "tmax", "points"), SLOPE_WINDOW))
    for dest, default in own.items():
        if getattr(args, dest) is None:
            setattr(args, dest, window.get(dest, default))
    if not scan_mode and args.m is None:
        raise UsageError("give --m for slope estimates or --m1/--m2 for a scan")
    # a degree cutoff beyond the quadrature rule or exact float degrees, or
    # a Gram beyond floats, is a usage error, in the estimate or its report
    try:
        return (_bergman_scan if scan_mode else _bergman_rays)(args, arr, quad)
    except (DegreeCutoffError, DenseScaleError) as exc:
        raise UsageError(str(exc)) from exc


def _bergman_scan(args, arr: WeightedArrangement, quad) -> int:
    import numpy as np

    from .bergman import curve_scan

    if min(args.m1, args.m2) < 1:
        raise UsageError("indices must be >= 1")
    _check_index_cost(2, max(args.m1, args.m2).bit_length())
    if not (0 < args.tmin < args.tmax):
        raise UsageError("need 0 < tmin < tmax")
    if args.tmin < sys.float_info.min or not math.isfinite(args.tmax):
        raise UsageError(f"need {sys.float_info.min} <= tmin (no "
                         "subnormal t) and a finite tmax")
    curve, curve_name = _parse_curve(args.curve)
    if not 2 <= args.points <= MAX_INDICES:
        raise UsageError(f"a slope needs 2 <= --points <= {MAX_INDICES}")
    if not (math.isfinite(args.slope_tol) and args.slope_tol >= 0):
        raise UsageError("--slope-tol must be finite and >= 0")
    t = np.geomspace(args.tmin, args.tmax, args.points)
    scan = curve_scan(arr, args.m1, args.m2, curve, t, quad)
    verdict = "UNBOUNDED" if scan.slope < -args.slope_tol else "BOUNDED"

    def to_json() -> dict:
        return {
            "command": "bergman-scan",
            "arrangement": arr.describe(),
            "curve": curve_name,
            "seed": args.seed,
            "sphere_samples": args.samples,
            "verdict": verdict,
            **scan.to_dict(),
        }

    def to_csv() -> list[list]:
        return [["t", "phi_m1", "phi_m2", "delta"]] + [
            [repr(v) for v in row] for row in scan.rows()
        ]

    _emit(args, to_json, to_csv, lambda: (
        f"Delta = phi_{args.m2} - phi_{args.m1} along {curve_name}: "
        f"slope {scan.slope:+.4f} vs log t -> {verdict}"
    ), floats=(scan.slope, *scan.t, *scan.phi1, *scan.phi2))
    return 0


def _bergman_rays(args, arr: WeightedArrangement, quad) -> int:
    from .bergman import lelong_estimate

    if args.m < 1:
        raise UsageError("--m must be >= 1")
    _check_index_cost(1, args.m.bit_length())
    if not 1 <= args.rays <= MAX_INDICES:
        raise UsageError(f"need 1 <= --rays <= {MAX_INDICES}")
    if args.audit_gram and args.format != "json":
        raise UsageError("--audit-gram needs --format json")
    est = lelong_estimate(arr, args.m, quad, rays=args.rays)
    symbolic = lelong(entry(arr, args.m).cls)

    def to_json() -> dict:
        payload = {
            "command": "bergman-rays",
            "arrangement": arr.describe(),
            "seed": args.seed,
            "sphere_samples": args.samples,
            "symbolic_lelong": str(symbolic),
            **est.to_dict(),
        }
        if args.audit_gram:  # the Gram the slopes read
            payload["gram"] = est.gram.to_dict()
        return payload

    def to_csv() -> list[list]:
        return [["ray", "slope"]] + [
            [i, repr(s)] for i, s in enumerate(est.per_ray)
        ]

    _emit(args, to_json, to_csv, lambda: (
        f"lelong(phi_{args.m}) ~ {est.value:.4f} over {args.rays} rays "
        f"(symbolic {symbolic})"
    ), floats=(est.value, *est.per_ray))
    return 0


# each subcommand: its handler, the builder of its arguments, its help line
_COMMANDS = {
    "analyze": (_cmd_analyze, _analyze_arguments,
                "ideal, generators, class and Lelong number per m"),
    "sequence": (_cmd_sequence, _sequence_arguments,
                 "monotonicity report for m = 1..m_max or a subsequence"),
    "compare": (_cmd_compare, _compare_arguments,
                "compare the classes of two sequence entries"),
    "lct": (_cmd_lct, _lct_arguments, "log canonical threshold"),
    "verify-paper": (_cmd_verify_paper, _verify_paper_arguments,
                     "run the reproduction claim registry"),
    "bergman": (_cmd_bergman, _bergman_arguments,
                "numeric kernel reports: gram audit, ray slopes, scans"),
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a run needs the arguments of the subcommand it names, which argparse
    # reads from the first token; --help, --version and an unknown
    # subcommand get every subcommand's
    parser = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command][0](args)
    except (UsageError, ArrangementError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
