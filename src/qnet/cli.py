"""Command-line interface.

Exit codes: 0 success, 2 validation error, 3 runtime error.
Output root: --out, else $QNET_OUT_DIR, else ./qnet-out.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import ValidationError
from .harness import DEFAULT_RAY_COUNT, run_experiment, write_region_csv
from .policies import PolicySpec
from .scenarios import BUILTIN_BUILDERS, builtin_scenario, check_run_settings, load_scenario


def _load(name_or_path: str):
    if name_or_path in BUILTIN_BUILDERS:
        return builtin_scenario(name_or_path)
    if os.path.isfile(name_or_path):
        return load_scenario(name_or_path)
    raise ValidationError("scenario", f"{name_or_path!r} is neither a builtin scenario "
                                      "nor an existing file")


def _out_dir(args) -> str:
    return args.out or os.environ.get("QNET_OUT_DIR") or "qnet-out"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qnet",
                                     description="queueing-network control experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario and emit trace/summary CSVs")
    p_run.add_argument("scenario", help="builtin name or scenario JSON path")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--slots", type=int, default=None)
    p_run.add_argument("--replications", type=int, default=None)
    p_run.add_argument("--policy", default=None, help="run only this policy kind")
    p_run.add_argument("--horizon", type=int, default=None)
    p_run.add_argument("--out", default=None)

    p_region = sub.add_parser("region", help="emit the stability-region boundary CSV")
    p_region.add_argument("scenario")
    p_region.add_argument("--policy-set", default="full", choices=["full", "mw"])
    p_region.add_argument("--rays", type=int, default=DEFAULT_RAY_COUNT)
    p_region.add_argument("--out", default=None)

    p_val = sub.add_parser("validate", help="validate a scenario description")
    p_val.add_argument("scenario")

    sub.add_parser("list-scenarios", help="list builtin scenario names")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list-scenarios":
            for name in sorted(BUILTIN_BUILDERS):
                print(name)
            return 0

        if args.command == "validate":
            scenario = _load(args.scenario)
            print(f"ok: scenario {scenario.name!r} "
                  f"({scenario.net.n_q} queues, {scenario.net.n_v} links, "
                  f"{len(scenario.policies)} policies)")
            return 0

        if args.command == "region":
            if args.rays < 1:
                raise ValidationError("--rays", f"expected a positive ray count, got {args.rays}")
            scenario = _load(args.scenario)
            path = write_region_csv(scenario, args.policy_set, _out_dir(args), args.rays)
            print(path)
            return 0

        if args.command == "run":
            scenario = _load(args.scenario)
            if args.horizon is not None and args.policy is None:
                raise ValidationError("--horizon", "requires --policy PNC or FPNC")
            overrides = {key: getattr(args, key) for key in ("slots", "replications", "seed")
                         if getattr(args, key) is not None}
            check_run_settings(overrides, prefix="--")
            for key, value in overrides.items():
                setattr(scenario, key, value)
            policies = None
            if args.policy is not None:
                policies = [PolicySpec(args.policy.upper(), args.horizon)]
            result = run_experiment(scenario, out_dir=_out_dir(args), policies=policies)
            for path in result.files:
                print(path)
            aborted = [r for r in result.runs if r.trace is None]
            if aborted:
                print(f"error: {len(aborted)} run(s) aborted: {aborted[0].error}",
                      file=sys.stderr)
                return 3
            return 0
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures map to exit code 3
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
