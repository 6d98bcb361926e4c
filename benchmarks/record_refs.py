"""Record the reference exact sections that the correctness gates compare with.

    python3 benchmarks/record_refs.py

Run it at the commit whose outputs are the reference.  It writes
``refs/canonical_exact.json`` (the exact section of each canonical report,
which does not depend on the verify seed) and ``refs/classify_exact.json``
(for generator seeds 0..``workloads.CLASSIFY_REF_SEEDS``-1, the ones the
classify workload draws from, a digest of each classify input mapped to the
digest of its exact section, or to ``error: <exception>`` where it failed).
"""

from __future__ import annotations

import json
import sys

import workloads

sys.path.insert(0, str(workloads.SRC))


def exact_of(text: str) -> str:
    from momenta import report, scenario

    sc = scenario.build_scenario(scenario.parse_config(text))
    return workloads.exact_text(report.build_analysis(sc, checks=[]).data)


def main() -> int:
    workloads.REFS.mkdir(exist_ok=True)

    canonical = {name: exact_of(text) for name, text in workloads.canonical_configs(0).items()}
    (workloads.REFS / "canonical_exact.json").write_text(json.dumps(canonical, indent=1, sort_keys=True) + "\n")

    classify = {}
    for seed in range(workloads.CLASSIFY_REF_SEEDS):
        for _, text in workloads.classify_configs(seed):
            try:
                value = workloads.digest(exact_of(text))
            except Exception as exc:  # recorded as the reference outcome
                value = f"error: {type(exc).__name__}: {exc}"
            classify[workloads.digest(text)] = value
        print(f"seed {seed} recorded", file=sys.stderr, flush=True)
    (workloads.REFS / "classify_exact.json").write_text(json.dumps(classify, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
