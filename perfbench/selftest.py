"""Self-test of the benchmark: its gates catch tampered outputs, and seeds agree.

Run from the repository root with ``python3 perfbench/run.py --self-test``.
It prints one PASS or FAIL line per check and exits 1 if any check failed.

- A build report with a changed ``soundness.s`` or expansion epsilon, a verify
  transcript with one failed line, and a search result with a changed epsilon
  must each fail their gate.
- Two seeds of each workload must give identical invariants (build reports,
  verify transcripts) and identical work counts, except the two counts
  ``tracing.ORDER_DEPENDENT`` names, which are printed.
- The metric names the benchmark prints must be those in ``BENCHMARK.json``.
"""

from __future__ import annotations

import copy
import json
import shutil

from run import ROOT, WORK, Failures, run_end_to_end, run_traced, trace_one
from tracing import ORDER_DEPENDENT, SEED_COUNTS, layer_metrics
from workloads import (
    WORKLOADS,
    Gate,
    SearchChecker,
    build_invariants,
    check_build,
    check_verify,
    load_expected,
    make_argv,
    make_config,
    read_json,
)

SEEDS = (0, 1)  # map to different units u on every group


def self_test() -> int:
    work = WORK / "self-test"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    failed = 0

    def check(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failed
        line = f"[{'PASS' if ok else 'FAIL'}] {name}"
        print(line + (f" ({detail})" if detail and not ok else ""))
        failed += not ok

    outputs: dict[tuple[str, int], tuple[dict | None, str]] = {}
    counts: dict[tuple[str, int], dict] = {}
    try:
        for name, w in WORKLOADS.items():
            gate = Gate(w)
            for seed in SEEDS:
                cfg_path, out_dir = work / "config.json", work / "out"
                cfg_path.write_text(json.dumps(make_config(w, seed)))
                argv = make_argv(w, cfg_path, out_dir, seed)
                tracer, wall, code, stdout, size = trace_one(argv, seed, out_dir)
                problems = gate(code, stdout, out_dir)
                check(f"{name} seed {seed} passes its gate", not problems,
                      "; ".join(problems))
                result = read_json(out_dir / "report.json") or read_json(
                    out_dir / "search_result.json")
                outputs[name, seed] = (result, stdout)
                counts[name, seed] = layer_metrics(tracer, wall, size)

            a, b = (counts[name, s] for s in SEEDS)
            differ = [k for k in SEED_COUNTS if a[k] != b[k]]
            check(f"{name}: work counts agree between seeds", not differ,
                  ", ".join(f"{k} {a[k]} vs {b[k]}" for k in differ))
            for k in ORDER_DEPENDENT:
                if a[k] != b[k]:
                    print(f"[INFO] {name}: {k} {a[k]} vs {b[k]} (order-dependent)")
            (ra, sa), (rb, sb) = (outputs[name, s] for s in SEEDS)
            if w.command == "build":
                check(f"{name}: invariants agree between seeds",
                      build_invariants(ra) == build_invariants(rb))
            if w.command == "verify":
                check(f"{name}: transcripts agree between seeds", sa == sb)

        expected = load_expected()["build-smallset"]
        report = outputs["build-smallset", SEEDS[0]][0]
        check("untampered build report passes", not check_build(0, report, expected))
        for path, value in ((("soundness", "s"), "1/3"),
                            (("expansion", "x", "epsilon"), "1/5"),
                            (("lt_profile", "kappa"), "2")):
            tampered = copy.deepcopy(report)
            node = tampered
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            check(f"build report with changed {'.'.join(path)} fails",
                  bool(check_build(0, tampered, expected)))
        check("build exiting 1 with a correct report fails",
              bool(check_build(1, report, expected)))

        transcript = outputs["verify-expand", SEEDS[0]][1]
        check("verify transcript with a [FAIL] line fails", bool(check_verify(
            0, transcript.replace("[PASS] unique", "[FAIL] unique", 1))))

        search_gate = SearchChecker(WORKLOADS["search-trials"])
        result = outputs["search-trials", SEEDS[0]][0]
        check("untampered search result passes", not search_gate(0, result))
        for key in ("epsilon", "cert_x", "cert_y"):
            tampered = copy.deepcopy(result)
            if key == "epsilon":
                tampered["epsilon"] = "1/100"
            else:
                tampered[key]["epsilon"] = "1/100"
            check(f"search result with changed {key} epsilon fails",
                  bool(search_gate(0, tampered)))

        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        w = WORKLOADS["build-smallset"]
        (work / "config.json").write_text(json.dumps(make_config(w, 0)))
        e2e_metrics, _ = run_end_to_end(w, 0, 0, work, Failures())
        check("end-to-end metrics match BENCHMARK.json",
              set(e2e_metrics) == {m["name"] for m in spec["end_to_end"]})
        traced_metrics, _ = run_traced(w, 0, 0, work, Failures())
        emitted = set(traced_metrics)
        listed = {m["name"] for m in spec["per_layer"]}
        check("per-layer metrics match BENCHMARK.json", emitted == listed,
              f"only emitted: {sorted(emitted - listed)}, "
              f"only listed: {sorted(listed - emitted)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"self-test: {failed} check(s) failed")
    return 1 if failed else 0

