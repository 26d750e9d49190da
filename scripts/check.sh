#!/usr/bin/env bash
# The full local gate: what CI runs, in the order that fails fastest.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all --check
cargo clippy --workspace --all-targets -- -D warnings
cargo build --release
cargo test -q

# Determinism gate: the observability example's trace must reproduce the
# checked-in golden byte for byte (same seed => same spans, same times).
trace="$(mktemp)"
trap 'rm -f "$trace"' EXIT
cargo run -q --release -p mits --example observability -- --trace-out "$trace" >/dev/null
diff -u tests/golden/observability_trace.jsonl "$trace"
echo "observability trace matches golden"

# Rollup golden: two seeded campuses (clean, and sharded under a failback
# storm with cell loss), each at 1 and 2 threads, must reproduce the
# checked-in digest, merged metrics (JSON and text), SLO verdicts and
# timeline byte for byte. Thread-count invariance alone would miss a
# storage or merge change that moves every value alike.
rollup="$(mktemp)"
trap 'rm -f "$trace" "$rollup"' EXIT
cargo run -q --release -p mits --example campus_rollup -- --out "$rollup"
diff -u tests/golden/campus_rollup.txt "$rollup"
echo "campus rollup matches golden"

# Campus smoke: a small parallel campus run must produce a well-formed,
# non-empty BENCH_campus.json (written to a temp path so the checked-in
# full-size numbers stay put).
campus_json="$(mktemp)"
trap 'rm -f "$trace" "$rollup" "$campus_json"' EXIT
cargo run -q --release -p mits-bench --bin tables -- \
  --exp campus --students 6 --threads 2 --clips 2 --out "$campus_json" >/dev/null
python3 - "$campus_json" <<'PY'
import json, sys
d = json.load(open(sys.argv[1]))
for key in ("students", "digest", "digest_match_1_vs_n_threads",
            "metrics_match_1_vs_n_threads", "traces_sampled", "slo_breaches",
            "bytes_simulated", "students_per_sec", "students_per_sec_min",
            "students_per_sec_max", "fetch200k_speedup", "host_cores", "peak_rss_mb"):
    assert key in d, f"BENCH_campus.json missing {key}"
assert d["students"] > 0 and d["bytes_simulated"] > 0, "empty campus run"
assert d["digest_match_1_vs_n_threads"] is True, "campus digest diverged"
assert d["metrics_match_1_vs_n_threads"] is True, "campus metrics rollup diverged"
PY
echo "campus bench json well-formed"

# Media-path smoke: the per-stage throughput table must emit every stage
# the flame profiler attributes time to, the CRC tiers must all be live,
# and the train fast path must actually beat the per-cell scheduler.
media_json="$(mktemp)"
trap 'rm -f "$trace" "$rollup" "$campus_json" "$media_json"' EXIT
cargo run -q --release -p mits-bench --bin tables -- \
  --exp media --out "$media_json" >/dev/null
python3 - "$media_json" <<'PY'
import json, sys
d = json.load(open(sys.argv[1]))
for key in ("crc_hw_accelerated", "crc_slice16_mbps", "crc_dispatch_mbps",
            "segment_mbps", "reassemble_mbps", "net_train_mbps",
            "net_per_cell_mbps", "train_speedup", "net_lossy_mbps",
            "lossy_speedup", "lossy_events_per_cell", "fetch200k_kbps"):
    assert key in d, f"BENCH_media.json missing {key}"
    if key != "crc_hw_accelerated":
        assert d[key] > 0, f"BENCH_media.json {key} not positive: {d[key]}"
assert d["train_speedup"] > 1.0, (
    f"cell trains slower than per-cell dispatch: {d['train_speedup']}")
# A train streaming across a hop with RNG-coupled faults keeps one timer
# per cell there instead of three.
assert d["lossy_speedup"] > 1.5, (
    f"a lossy hop is not faster than per-cell dispatch: {d['lossy_speedup']}")
# On that hop a cell's TxDone is its only timer: the cells landing at the
# host ride their end cell's. A count, so the gate cannot be flaky.
assert d["lossy_events_per_cell"] <= 1.1, (
    f"a streamed cell costs more than one timer: {d['lossy_events_per_cell']}")
PY
echo "media bench json well-formed, train fast path and lossy stream engaged"

# SLO smoke: a small zero-fault campus must emit valid verdict JSON with
# zero breaches (warn tiers are informational; a breach here means the
# default objectives or the campus telemetry regressed).
slo_json="$(mktemp)"
trap 'rm -f "$trace" "$rollup" "$campus_json" "$slo_json"' EXIT
cargo run -q --release -p mits-bench --bin tables -- \
  --exp slo --students 8 --threads 2 --clips 2 --out "$slo_json" >/dev/null
python3 - "$slo_json" <<'PY'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["slos"], "no SLO verdicts emitted"
for o in d["slos"]:
    for key in ("name", "observed", "warn", "breach", "verdict"):
        assert key in o, f"SLO verdict missing {key}"
    assert o["verdict"] in ("pass", "warn", "breach"), o
assert d["breaches"] == 0, f"zero-fault campus breached SLOs: {d}"
PY
echo "slo verdicts valid, zero breaches"

# Fault-storm smoke: a seeded storm against one shard of the partitioned
# store must stay inside its blast radius (healthy sessions clean and
# byte-identical to the calm twin, zero SLO breaches), replay
# deterministically under its seed, and the flash-crowd edge tier must
# bound origin load by misses + invalidations.
shards_json="$(mktemp)"
trap 'rm -f "$trace" "$rollup" "$campus_json" "$slo_json" "$shards_json"' EXIT
cargo run -q --release -p mits-bench --bin tables -- \
  --exp shards --shards 3 --students 6 --clip-bytes 100000 --out "$shards_json" >/dev/null
python3 - "$shards_json" <<'PY'
import json, sys
d = json.load(open(sys.argv[1]))
for key in ("shards", "victim_shard", "students", "sessions_on_victim",
            "degraded_on_victim", "healthy_clean", "healthy_digest_match",
            "storm_deterministic", "slo_breaches", "flash_clients",
            "origin_no_cache", "origin_with_cache", "cache_hit_rate",
            "origin_bound_ok", "edge_hits", "edge_misses",
            "edge_invalidations"):
    assert key in d, f"BENCH_shards.json missing {key}"
assert d["healthy_clean"] is True, "storm leaked past the victim shard"
assert d["healthy_digest_match"] is True, "healthy sessions diverged from the calm twin"
assert d["storm_deterministic"] is True, "storm not deterministic under its seed"
assert d["slo_breaches"] == 0, f"fault-storm SLOs breached: {d}"
assert d["degraded_on_victim"] == d["sessions_on_victim"], "storm missed its victim"
assert d["origin_bound_ok"] is True, "edge cache failed to bound origin load"
assert d["origin_with_cache"] < d["origin_no_cache"], "edge cache absorbed nothing"
assert 0.0 < d["cache_hit_rate"] <= 1.0, d["cache_hit_rate"]
PY
echo "fault-storm smoke passed: blast radius contained, storm deterministic"

# Forensics smoke: the same seeded storm, fed to the campus as an
# injected fault schedule, must auto-produce a forensic bundle with a
# valid-JSON causal chain that names the injected fault on the victim
# shard; the calm twin must produce no bundles; the timeline and the
# bundles must be byte-identical serial vs parallel.
forensics_json="$(mktemp)"
trap 'rm -f "$trace" "$rollup" "$campus_json" "$slo_json" "$shards_json" "$forensics_json"' EXIT
cargo run -q --release -p mits-bench --bin tables -- \
  --exp forensics --shards 3 --students 6 --clip-bytes 100000 --out "$forensics_json" >/dev/null
python3 - "$forensics_json" <<'PY'
import json, sys
d = json.load(open(sys.argv[1]))
for key in ("shards", "victim_shard", "students", "storm_bundles",
            "calm_bundles", "forensics_match_1_vs_n_threads",
            "chain_names_victim", "exemplar_trace_resolvable",
            "timeline", "bundles"):
    assert key in d, f"BENCH_forensics.json missing {key}"
victim = d["victim_shard"]
assert d["storm_bundles"] >= 1, "storm produced no forensic bundle"
assert d["calm_bundles"] == 0, "calm twin produced a forensic bundle"
assert d["forensics_match_1_vs_n_threads"] is True, \
    "forensics not thread-count invariant"
assert d["chain_names_victim"] is True, "causal chain missed the victim"
assert d["exemplar_trace_resolvable"] is True, \
    "bundle exemplar points at an unsampled trace"
tl = d["timeline"]
assert tl["v"] == 1 and tl["window_us"] > 0 and tl["windows"], tl
for b in d["bundles"]:
    chain = b["chain"]
    assert chain, "bundle has an empty causal chain"
    assert chain[0]["stage"] == "fault", chain[0]
    assert f"shard {victim}" in chain[0]["label"], chain[0]
    sus = b["suspect"]
    assert sus and sus["shard"] == victim, sus
    assert sus["label"] == f"fault_storm.shard{victim}", sus
    assert b["window"]["start_us"] <= sus["onset_us"] < b["window"]["end_us"], b
PY
echo "forensics smoke passed: bundle names the injected fault, calm twin clean"

# Replay smoke: the same storm again, then extract the victim session
# from the incident bundle's replay handle and re-run it solo at max
# instrumentation. The faithfulness proof (digest checkpoints layer for
# layer) and the breach reproduction must hold, and the weathermap must
# parse and cover every hop on the victim's route.
replay_json="$(mktemp)"
trap 'rm -f "$trace" "$rollup" "$campus_json" "$slo_json" "$shards_json" "$forensics_json" "$replay_json"' EXIT
cargo run -q --release -p mits-bench --bin tables -- \
  --exp replay --shards 3 --students 6 --clip-bytes 100000 --out "$replay_json" >/dev/null
python3 - "$replay_json" <<'PY'
import json, sys
d = json.load(open(sys.argv[1]))
for key in ("shards", "victim_shard", "students", "student", "session_seed",
            "digest", "digest_match", "breach_reproduced", "handle_agrees",
            "bundle", "route", "weathermap"):
    assert key in d, f"BENCH_replay.json missing {key}"
assert d["digest_match"] is True, "replay diverged from the campus digest"
assert d["breach_reproduced"] is True, "replay failed to reproduce the breach"
assert d["handle_agrees"] is True, "forensic replay handle seed disagrees"
assert d["student"] % d["shards"] == d["victim_shard"], \
    "replayed a student off the victim shard"
b = d["bundle"]
assert b["t"] == "replay" and b["v"] == 1, b
assert b["digest"] == d["digest"] and b["layers"], "bundle lost its checkpoints"
assert b["layers"][-1]["digest"] == b["digest"], \
    "layer trace does not fold to the digest"
assert b["faults"], "fault-schedule slice missing from the bundle"
wm = d["weathermap"]
assert wm["t"] == "weathermap" and wm["v"] == 1 and wm["window_us"] > 0, wm
hops = {(h["from"], h["to"]) for h in d["route"]}
assert hops, "victim route is empty"
covered = {(l["from"], l["to"]) for l in wm["links"]}
assert hops <= covered, f"weathermap misses hops: {hops - covered}"
for l in wm["links"]:
    assert l["windows"], f"link {l['from']}->{l['to']} has no telemetry windows"
PY
echo "replay smoke passed: victim reproduced under proof, weathermap covers the route"

# Bench regression gate: re-run the campus at the committed baseline's
# own size and fail on a >25% drop in students/s throughput. Both sides
# are medians: the baseline of five runs, the fresh figure of the run's
# CAMPUS_LEGS N-thread legs (tables.rs). Wall-clock is noisy, so the
# tolerance is deliberately loose; a real regression (like losing the
# zero-copy path) blows way past it.
gate_json="$(mktemp)"
trap 'rm -f "$trace" "$rollup" "$campus_json" "$slo_json" "$shards_json" "$forensics_json" "$replay_json" "$gate_json"' EXIT
baseline_students="$(python3 -c 'import json;print(json.load(open("BENCH_campus.json"))["students"])')"
baseline_threads="$(python3 -c 'import json;print(json.load(open("BENCH_campus.json"))["threads"])')"
baseline_clips="$(python3 -c 'import json;print(json.load(open("BENCH_campus.json"))["clips_per_student"])')"
cargo run -q --release -p mits-bench --bin tables -- \
  --exp campus --students "$baseline_students" --threads "$baseline_threads" \
  --clips "$baseline_clips" --out "$gate_json" >/dev/null
python3 - BENCH_campus.json "$gate_json" <<'PY'
import json, sys
base = json.load(open(sys.argv[1]))
now = json.load(open(sys.argv[2]))
floor = 0.75 * base["students_per_sec"]
assert now["students_per_sec"] >= floor, (
    f"campus throughput regressed >25%: {now['students_per_sec']:.2f} students/s "
    f"vs baseline {base['students_per_sec']:.2f} (floor {floor:.2f})")
assert now["digest"] == base["digest"], (
    f"campus digest changed: {now['digest']} vs baseline {base['digest']} "
    "(simulation behaviour drifted; regenerate BENCH_campus.json deliberately)")
# Media-path ratchet: the 200 KB fetch rides the cell-train fast path;
# losing it (silent expansion, CRC dispatch fallback) costs integer
# factors, so a 15% tolerance only absorbs wall-clock noise.
fetch_floor = 0.85 * base["fetch200k_kbps_now"]
assert now["fetch200k_kbps_now"] >= fetch_floor, (
    f"200KB fetch regressed >15%: {now['fetch200k_kbps_now']:.1f} KB/s "
    f"vs baseline {base['fetch200k_kbps_now']:.1f} (floor {fetch_floor:.1f})")
# Threads must not lose. The committed baseline records the claim; the
# fresh run re-proves it with a core-aware floor: on a multi-core host
# the worker pool must genuinely win (>= 1.0); on a single core the
# parallel leg can only tie, so allow scheduler noise down to 0.85.
assert base["speedup_n_over_1"] >= 1.0, (
    f"committed baseline records threads losing: {base['speedup_n_over_1']}")
speedup_floor = 1.0 if now["host_cores"] > 1 else 0.85
assert now["speedup_n_over_1"] >= speedup_floor, (
    f"threads lose: speedup {now['speedup_n_over_1']:.3f} "
    f"< floor {speedup_floor} on {now['host_cores']} core(s)")
print(f"throughput {now['students_per_sec']:.2f} students/s "
      f">= floor {floor:.2f} (baseline {base['students_per_sec']:.2f}); "
      f"speedup {now['speedup_n_over_1']:.3f} >= {speedup_floor}")
PY
echo "campus bench regression gate passed"
