#!/usr/bin/env python3
"""Validates the schema of every committed BENCH_*.json record.

CI runs this from the repo root after the bench-smoke steps regenerate
the records, so a bench that silently drops a section (or emits broken
JSON) fails the build rather than rotting in the repo. Pass a directory
to check records somewhere else.

Validation is closed-world: every record must carry a `meta` provenance
block (`git_sha`, `threads`), all sections its bench tag requires, and
nothing else — an unknown top-level section fails the build instead of
riding along unchecked until it rots.
"""
import glob
import json
import sys

# Top-level sections each record must carry, keyed by its `bench` tag.
REQUIRED = {
    "flow": ["config", "sizes", "timings_ms", "edges", "speedup", "equivalence"],
    "matching": ["config", "timings_ms", "stats", "equivalence", "matrix_free"],
    "scale": ["config", "kernel", "parity", "telemetry", "sizes"],
    "serve": ["config", "throughput", "latency_ms", "server"],
}

# Sections every record carries regardless of bench tag.
COMMON = ["bench", "meta"]

# Provenance keys `meta` must carry (bench_meta_json in mc-bench).
META_REQUIRED = ["git_sha", "threads"]

# Stages every scale `sizes` row splits `solve_ms` into, read from the
# mc-obs span tree (`other` is the remainder outside the named spans).
SCALE_STAGES = ["path_cover", "ladder_sweep", "ladder_wire", "maxflow", "other"]

# Stages every scale `sizes` row splits `load_ms` into: the MCC1 reads
# and the rank compression under the `columnar_load` span, and `other`
# for the rest (opening the file).
SCALE_LOAD_STAGES = ["read", "rank", "other"]

# How far a row's stage times may sum from its end-to-end figure.
STAGES_TOLERANCE = 0.05

SCALE_TELEMETRY = [
    "n",
    "reps",
    "interval_ms",
    "plain_solve_ms",
    "sampled_solve_ms",
    "overhead_frac",
    "samples",
]


def fail(msg):
    print(f"FAIL: {msg}")
    sys.exit(1)


def check_stages(path, row, key, names, total_key):
    """Row `key` must name exactly `names`, none negative, summing to
    the row's `total_key` within STAGES_TOLERANCE."""
    stages = row.get(key)
    if not isinstance(stages, dict) or sorted(stages) != sorted(names):
        fail(f"{path}: sizes row n={row.get('n')} needs {key} {names}")
    if any(v < 0 for v in stages.values()):
        fail(f"{path}: negative stage time in row n={row['n']}: {stages}")
    total = sum(stages.values())
    if abs(total - row[total_key]) > STAGES_TOLERANCE * row[total_key]:
        fail(
            f"{path}: {key} of row n={row['n']} sum to {total:.1f} ms, "
            f"not {total_key} {row[total_key]} (±{STAGES_TOLERANCE:.0%})"
        )


def check_meta(path, doc):
    meta = doc.get("meta")
    if not isinstance(meta, dict):
        fail(f"{path}: missing or non-object `meta` provenance section")
    missing = [k for k in META_REQUIRED if k not in meta]
    if missing:
        fail(f"{path}: meta section missing {missing}")
    if not isinstance(meta["git_sha"], str) or not meta["git_sha"]:
        fail(f"{path}: meta.git_sha must be a non-empty string")
    if not isinstance(meta["threads"], int) or meta["threads"] < 1:
        fail(f"{path}: meta.threads must be a positive integer")
    # Optional: records written before the flag existed do not carry it.
    if "dirty" in meta and not isinstance(meta["dirty"], bool):
        fail(f"{path}: meta.dirty must be true or false")


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    paths = sorted(glob.glob(f"{root}/BENCH_*.json"))
    if not paths:
        fail(f"no BENCH_*.json files found under {root}")
    for path in paths:
        with open(path) as f:
            try:
                doc = json.load(f)
            except json.JSONDecodeError as e:
                fail(f"{path}: not valid JSON: {e}")
        name = doc.get("bench")
        expected = path.split("BENCH_")[-1].removesuffix(".json")
        if name != expected:
            fail(f"{path}: bench tag {name!r} does not match filename ({expected!r})")
        if name not in REQUIRED:
            fail(f"{path}: unknown bench {name!r} — add its schema to {__file__}")
        check_meta(path, doc)
        missing = [k for k in REQUIRED[name] if k not in doc]
        if missing:
            fail(f"{path}: missing sections {missing}")
        allowed = set(REQUIRED[name]) | set(COMMON)
        unknown = sorted(k for k in doc if k not in allowed)
        if unknown:
            fail(
                f"{path}: unknown top-level sections {unknown} — "
                f"declare them in REQUIRED[{name!r}] or drop them"
            )
        if name == "scale":
            t = doc["telemetry"]
            missing = [k for k in SCALE_TELEMETRY if k not in t]
            if missing:
                fail(f"{path}: telemetry section missing {missing}")
            if not (t["plain_solve_ms"] > 0 and t["sampled_solve_ms"] > 0):
                fail(f"{path}: non-positive telemetry timings: {t}")
            if t["samples"] < 2:
                fail(f"{path}: sampler recorded only {t['samples']} samples")
            # The committed record must honor the documented budget: the
            # 100 ms sampler costs < 2% end-to-end (docs/OBSERVABILITY.md).
            if t["overhead_frac"] >= 0.02:
                fail(
                    f"{path}: telemetry overhead {t['overhead_frac']:.2%} "
                    "breaches the 2% budget"
                )
            for row in doc["sizes"]:
                check_stages(path, row, "stages_ms", SCALE_STAGES, "solve_ms")
                check_stages(path, row, "load_stages_ms", SCALE_LOAD_STAGES, "load_ms")
        if name == "serve":
            t = doc["throughput"]
            for key in ("frames", "errors", "points", "elapsed_s",
                        "frames_per_sec", "single_point_qps"):
                if key not in t:
                    fail(f"{path}: throughput section missing {key!r}")
            if not t["single_point_qps"] > 0:
                fail(f"{path}: non-positive qps: {t}")
            if t["errors"] != 0:
                fail(f"{path}: load run recorded {t['errors']} error frames")
            lat = doc["latency_ms"]
            for key in ("p50", "p90", "p99", "max"):
                if key not in lat:
                    fail(f"{path}: latency_ms section missing {key!r}")
            if not (0 < lat["p50"] <= lat["p99"] <= lat["max"]):
                fail(f"{path}: latency quantiles out of order: {lat}")
            server = doc["server"]
            if server is not None:
                # Server-side counters must cover everything the load
                # generator got acknowledged (>=: the probe connection
                # and any other client also count server-side).
                if server.get("points", 0) < t["points"]:
                    fail(
                        f"{path}: server acknowledged {server.get('points')} points "
                        f"but the generator recorded {t['points']}"
                    )
        if name == "matching":
            if doc["equivalence"].get("certified") is not True:
                fail(f"{path}: decomposition not certified: {doc['equivalence']}")
            mf = doc["matrix_free"]
            if not isinstance(mf, dict):
                fail(f"{path}: `matrix_free` must be an object with a `sizes` array")
            for key in ("workload", "dim", "reps", "sizes"):
                if key not in mf:
                    fail(f"{path}: matrix_free section missing {key!r}")
            rows = mf["sizes"]
            if not isinstance(rows, list) or not rows:
                fail(f"{path}: matrix_free.sizes must be a non-empty array of per-size rows")
            for row in rows:
                for key in ("n", "instance", "width", "oracle_ms", "certified"):
                    if key not in row:
                        fail(f"{path}: matrix_free row missing {key!r}: {row}")
                if row["certified"] is not True:
                    fail(f"{path}: matrix_free row n={row['n']} is not certified")
        print(f"{path}: OK ({name})")
    print(f"{len(paths)} bench records valid")


if __name__ == "__main__":
    main()
