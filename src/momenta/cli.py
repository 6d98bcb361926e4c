"""Command-line interface.

Subcommands: `analyze` (exact classification plus the check suite, as JSON),
`verify` (seeded invariant checks, exit 1 on failure), `orbit` (sampled
affine-orbit CSV).  Exit codes: 0 pass, 1 check failure, 2 usage or config
error, 3 internal error (a numerical or consistency failure outside the check
suite).  MOMENTA_LOG=off|info|debug controls stderr logging; any other value
is reported on stderr and treated as off.
"""

from __future__ import annotations

import argparse
import csv
import io
import logging
import os
import sys

from .cylinder import affine_action, casimir, orbit_descriptor
from .errors import ConfigError, MomentaError
from .groups import GroupPath
from .report import build_analysis
from .scenario import Scenario, build_scenario, parse_config
from .verification import check_rng, run_checks

log = logging.getLogger("momenta.cli")

_LOG_LEVELS = {"off": logging.CRITICAL + 10, "info": logging.INFO, "debug": logging.DEBUG}


def _setup_logging() -> None:
    raw = os.environ.get("MOMENTA_LOG", "off")
    name = raw.strip().lower()
    if name not in _LOG_LEVELS:
        print(f"momenta: unknown MOMENTA_LOG value {raw!r}, expected off|info|debug; "
              "logging stays off", file=sys.stderr)
        name = "off"
    level = _LOG_LEVELS[name]
    logging.basicConfig(
        level=level, stream=sys.stderr, format="%(name)s %(levelname)s %(message)s"
    )


def _load_scenario(path: str) -> Scenario:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError("<config>", f"cannot read {path}: {exc}") from exc
    return build_scenario(parse_config(text))


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError("--out", f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _cmd_analyze(args) -> int:
    sc = _load_scenario(args.config)
    report = build_analysis(sc)
    _emit(report.to_json(), args.out)
    return 0


def _cmd_verify(args) -> int:
    if args.seed is not None and args.seed < 0:
        print(f"--seed must be at least 0, got {args.seed}", file=sys.stderr)
        return 2
    sc = _load_scenario(args.config)
    reports = run_checks(sc, seed=args.seed)
    for r in reports:
        flag = "PASS" if r.passed else "FAIL"
        print(
            f"{flag} {r.check_name:32s} max_error={r.max_error:.3e} "
            f"tolerance={r.tolerance:.1e} samples={r.sample_count} "
            f"time={r.duration_seconds:.3f}s"
        )
    failed = [r for r in reports if not r.passed]
    print(f"{len(reports) - len(failed)}/{len(reports)} checks passed")
    return 1 if failed else 0


def _cmd_orbit(args) -> int:
    if args.samples < 1:
        print(f"--samples must be at least 1, got {args.samples}", file=sys.stderr)
        return 2
    sc = _load_scenario(args.config)
    if not 0 <= args.mu < len(sc.mu_list):
        print(
            f"mu index {args.mu} out of range (config has {len(sc.mu_list)} entries)",
            file=sys.stderr,
        )
        return 2
    mu = sc.mu_list[args.mu]
    seed = sc.config.verify.seed
    desc = orbit_descriptor(sc, mu, rng=check_rng(seed, f"orbit[{args.mu}]"))

    rng = check_rng(seed, f"orbit-rows[{args.mu}]")
    # one block of directions, the same numbers as drawing them row by row
    us = rng.uniform(-2.0, 2.0, (args.samples, sc.n))
    moved = affine_action(sc.model, GroupPath.straight(sc.cover, us), mu)
    header = ["sample"] + [f"g{i}" for i in range(sc.n)] + [f"mu{i}" for i in range(sc.n)]
    columns = [us, moved]
    if desc.casimir_value is not None:  # a level set: the Casimir is the orbit's constant
        header.append("casimir")
        columns.append(casimir(sc.model, moved)[:, None])
    buf = io.StringIO()
    buf.write(f"# descriptor: {desc.summary()}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for i, parts in enumerate(zip(*columns)):
        writer.writerow([i] + [f"{x:.12g}" for part in parts for x in part])
    _emit(buf.getvalue(), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momenta",
        description="Momentum maps on covers, holonomy groups, and cylinder reduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="exact classification plus the check suite, as JSON")
    pa.add_argument("--config", required=True, help="scenario config JSON file")
    pa.add_argument("--out", help="write the report here instead of stdout")

    pv = sub.add_parser("verify", help="run the seeded invariant checks")
    pv.add_argument("--config", required=True, help="scenario config JSON file")
    pv.add_argument("--seed", type=int, help="override the config seed, at least 0")

    po = sub.add_parser("orbit", help="sample an affine orbit as CSV")
    po.add_argument("--config", required=True, help="scenario config JSON file")
    po.add_argument("--mu", type=int, required=True, help="index into muList")
    po.add_argument("--samples", type=int, default=100, help="number of rows, at least 1")
    po.add_argument("--out", help="write the CSV here instead of stdout")
    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    handlers = {"analyze": _cmd_analyze, "verify": _cmd_verify, "orbit": _cmd_orbit}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MomentaError as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
