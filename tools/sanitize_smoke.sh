#!/usr/bin/env bash
# Builds the tree with AddressSanitizer + UndefinedBehaviorSanitizer (default)
# or ThreadSanitizer (--tsan) and runs the robustness test suite (or the full
# suite with --full) against it.
#
# Usage:
#   tools/sanitize_smoke.sh [--full] [--tsan] [--server] [--build-dir DIR] [--jobs N]
#
# The robustness tests deliberately walk every error path (corrupt
# checkpoints, truncated graph files, wedged workers, stolen in-flight
# records); running them under ASan/UBSan proves those paths are clean, and
# under TSan proves the watchdog's steal/rescue protocol and the governor's
# quiesce-then-degrade dance are free of data races, not just non-crashing.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir=""
jobs="$(nproc 2>/dev/null || echo 4)"
ctest_args=(-L robustness)
sanitize="address;undefined"
mode="asan"
server_mode=0

while [[ $# -gt 0 ]]; do
  case "$1" in
    --full) ctest_args=(); shift ;;
    --tsan) sanitize="thread"; mode="tsan"; shift ;;
    --server)
      # Server focus: the protocol/session/registry/server unit tests plus
      # the 55-session soak (handlers, reaper, drain, and clients all on
      # real threads — a prime TSan surface), then a CLI drain/restart
      # smoke below.
      server_mode=1
      ctest_args=(-R '^(Endpoint|ListenSocket|CodecTest|SessionFactory|Session|SessionRegistry|ServerTest)\.|^server\.soak$')
      shift ;;
    --build-dir) build_dir="$2"; shift 2 ;;
    --jobs) jobs="$2"; shift 2 ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done
if [[ -z "${build_dir}" ]]; then
  build_dir="${repo_root}/build-sanitize-${mode}"
fi

cmake -B "${build_dir}" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DSPNL_SANITIZE="${sanitize}"
cmake --build "${build_dir}" -j "${jobs}"

if [[ "${mode}" == "tsan" ]]; then
  export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1"
else
  # halt_on_error keeps a UBSan finding from scrolling past as a warning.
  export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"
  export ASAN_OPTIONS="detect_leaks=1"
fi

ctest --test-dir "${build_dir}" --output-on-failure "${ctest_args[@]+"${ctest_args[@]}"}"

if [[ "${server_mode}" == "1" ]]; then
  # CLI drain/restart smoke: a real spnl_server process under the sanitizer,
  # a client that tears its own connection mid-stream (resume-by-token), and
  # a SIGTERM drain + restart with a second client riding across it. Routes
  # must be byte-identical to the direct sequential run.
  server_dir="${build_dir}/sanitize_smoke/server"
  rm -rf "${server_dir}"
  mkdir -p "${server_dir}/drain"
  sock="${server_dir}/s.sock"
  "${build_dir}/tools/spnl_gen" --out="${server_dir}/graph.adj" \
    --model=webcrawl --vertices=30000 --avg-degree=8 --seed=11
  "${build_dir}/tools/spnl_partition" "${server_dir}/graph.adj" --k=8 \
    --algo=spnl --out="${server_dir}/route_direct.txt" --quiet

  "${build_dir}/tools/spnl_server" --listen="unix:${sock}" \
    --drain-dir="${server_dir}/drain" --idle-timeout=30 --quiet &
  server_pid=$!
  for _ in $(seq 1 100); do [[ -S "${sock}" ]] && break; sleep 0.1; done
  [[ -S "${sock}" ]]

  "${build_dir}/tools/spnl_client" "${server_dir}/graph.adj" \
    --connect="unix:${sock}" --k=8 --algo=spnl --deadline=120 \
    --inject-disconnect-after=5000 \
    --out="${server_dir}/route_resume.txt" --quiet
  cmp "${server_dir}/route_direct.txt" "${server_dir}/route_resume.txt"

  # batch=1 keeps the second client mid-stream long enough for the SIGTERM
  # to catch it; the drained server must exit 0 (session counts reconcile)
  # and leave a checkpoint the restarted server restores.
  "${build_dir}/tools/spnl_client" "${server_dir}/graph.adj" \
    --connect="unix:${sock}" --k=8 --algo=spnl --deadline=180 \
    --max-attempts=30 --batch=1 \
    --out="${server_dir}/route_restart.txt" --quiet &
  client_pid=$!
  sleep 0.5
  kill -TERM "${server_pid}"
  wait "${server_pid}"
  ls "${server_dir}/drain"/*.ckpt >/dev/null

  "${build_dir}/tools/spnl_server" --listen="unix:${sock}" \
    --drain-dir="${server_dir}/drain" --idle-timeout=30 --quiet &
  server_pid=$!
  wait "${client_pid}"
  cmp "${server_dir}/route_direct.txt" "${server_dir}/route_restart.txt"
  kill -TERM "${server_pid}"
  wait "${server_pid}"

  echo "sanitize smoke (${mode}, server): OK"
  exit 0
fi

# Instrumented parallel driver under the sanitizers: the per-worker PerfStats
# instances, the post-join merge, and the fused scoring kernel all run on
# real threads here, so an out-of-range Γ-row offset, a scratch-buffer
# overflow, or UB in the timing paths surfaces as a sanitizer abort rather
# than a corrupted counter. With the watchdog armed the monitor thread's
# steal/rescue path and the governor's mid-stream window shrink run
# concurrently with the workers — exactly the interleavings TSan exists for.
smoke_dir="${build_dir}/sanitize_smoke"
mkdir -p "${smoke_dir}"
"${build_dir}/tools/spnl_gen" --out="${smoke_dir}/graph.adj" \
  --model=webcrawl --vertices=20000 --avg-degree=8 --seed=7
"${build_dir}/tools/spnl_partition" "${smoke_dir}/graph.adj" --k=8 \
  --algo=spnl --threads=4 --perf-report \
  --perf-json="${smoke_dir}/perf_parallel.json"
"${build_dir}/tools/spnl_partition" "${smoke_dir}/graph.adj" --k=8 \
  --algo=spn --perf-report
# Watchdog-enabled parallel run with an injected straggler (stolen + rescued
# record) and a governed run forced down the degradation ladder. The default
# runs above already exercise the claim-based slab dispatch (the RCT is off
# by default; the robustness suite's watchdog and multi-worker checkpoint
# tests run it); the second stuck run below adds a slow worker, so TSan sees
# a steal in the middle of a claim and slab recycling behind a straggler too.
"${build_dir}/tools/spnl_partition" "${smoke_dir}/graph.adj" --k=8 \
  --algo=spnl --threads=4 --watchdog-timeout=0.2 \
  --inject-faults=stuck:1@50 --quiet
"${build_dir}/tools/spnl_partition" "${smoke_dir}/graph.adj" --k=8 \
  --algo=spnl --threads=4 --watchdog-timeout=0.2 \
  --inject-faults=stuck:2@75,slow:0@0.0001 --quiet
"${build_dir}/tools/spnl_partition" "${smoke_dir}/graph.adj" --k=8 \
  --algo=spnl --threads=4 --watchdog-timeout=0.2 --memory-budget=64K \
  --perf-json="${smoke_dir}/perf_degraded.json" --quiet
# The parallel hot path with the watchdog publishing every record and a
# straggler holding back slab recycling, so TSan sees the eager Γ
# fetch_adds, the watermark advance and the reader's slab refills
# interleaved with the monitor thread.
"${build_dir}/tools/spnl_partition" "${smoke_dir}/graph.adj" --k=8 \
  --algo=spnl --threads=4 --watchdog-timeout=0.5 \
  --inject-faults=slow:3@0.00005 \
  --perf-json="${smoke_dir}/perf_lockfree.json" --quiet
# Checkpoint quiesce + resume under the sanitizer: the reader snapshots the
# shared state at a publish point while workers wait for their next claim.
"${build_dir}/tools/spnl_partition" "${smoke_dir}/graph.adj" --k=8 \
  --algo=spnl --threads=4 --checkpoint="${smoke_dir}/lf.ckpt" \
  --checkpoint-every=5000 --quiet
"${build_dir}/tools/spnl_partition" "${smoke_dir}/graph.adj" --k=8 \
  --algo=spnl --threads=4 --resume-from="${smoke_dir}/lf.ckpt" --quiet
python3 -c "import json,sys; json.load(open(sys.argv[1]))" \
  "${smoke_dir}/perf_parallel.json" 2>/dev/null \
  || grep -q '"total_nanos"' "${smoke_dir}/perf_parallel.json"
python3 -c "import json,sys; json.load(open(sys.argv[1]))" \
  "${smoke_dir}/perf_degraded.json" 2>/dev/null \
  || grep -q '"total_nanos"' "${smoke_dir}/perf_degraded.json"
grep -q '"degradations"' "${smoke_dir}/perf_degraded.json"

# Ingestion under the sanitizers: the sadj writer/reader round trip (the
# reader's read window and its end-pointer checks), the streaming (--stream)
# front-end, and a sadj run whose first read comes back short. Every route
# must be byte-identical to the text baseline.
"${build_dir}/tools/spnl_partition" "${smoke_dir}/graph.adj" --k=8 \
  --algo=spnl --out="${smoke_dir}/route_text.txt" --quiet
"${build_dir}/tools/spnl_convert" "${smoke_dir}/graph.adj" \
  --out="${smoke_dir}/graph.sadj" --quiet
"${build_dir}/tools/spnl_partition" "${smoke_dir}/graph.sadj" --k=8 \
  --algo=spnl --format=sadj --out="${smoke_dir}/route_sadj.txt" --quiet
cmp "${smoke_dir}/route_text.txt" "${smoke_dir}/route_sadj.txt"
"${build_dir}/tools/spnl_partition" "${smoke_dir}/graph.sadj" --k=8 \
  --algo=spnl --format=sadj --stream \
  --out="${smoke_dir}/route_stream.txt" --quiet
cmp "${smoke_dir}/route_text.txt" "${smoke_dir}/route_stream.txt"
"${build_dir}/tools/spnl_partition" "${smoke_dir}/graph.sadj" --k=8 \
  --algo=spnl --format=sadj --inject-io-faults=short:read@1 \
  --out="${smoke_dir}/route_short.txt" --quiet
cmp "${smoke_dir}/route_text.txt" "${smoke_dir}/route_short.txt"
# sadj -> adj round trip reproduces the original text stream.
"${build_dir}/tools/spnl_convert" "${smoke_dir}/graph.sadj" \
  --format=sadj --to=adj --out="${smoke_dir}/graph_rt.adj" --quiet
"${build_dir}/tools/spnl_partition" "${smoke_dir}/graph_rt.adj" --k=8 \
  --algo=spnl --out="${smoke_dir}/route_rt.txt" --quiet
cmp "${smoke_dir}/route_text.txt" "${smoke_dir}/route_rt.txt"
# Typed CLI error: malformed numerics must exit 2, not parse as 0.
if "${build_dir}/tools/spnl_partition" "${smoke_dir}/graph.adj" --k=8 \
  --algo=spnl --threads=abc --quiet 2>/dev/null; then
  echo "expected --threads=abc to fail" >&2; exit 1
fi

# Storage-fault injection under the sanitizers: a failed route write must be
# a typed exit-1 error (never a silent 0 or a sanitizer abort), a malformed
# fault plan must exit 2, and a survivable EINTR/short-write storm must
# still publish a byte-identical route.
if "${build_dir}/tools/spnl_partition" "${smoke_dir}/graph.adj" --k=8 \
  --algo=spnl --out="${smoke_dir}/route_fail.txt" \
  --inject-io-faults=fail:write@1@enospc --quiet 2>/dev/null; then
  echo "expected injected ENOSPC route write to fail" >&2; exit 1
fi
if "${build_dir}/tools/spnl_partition" "${smoke_dir}/graph.adj" --k=8 \
  --algo=spnl --inject-io-faults=fail:bogus@1 --quiet 2>/dev/null; then
  echo "expected malformed --inject-io-faults plan to exit 2" >&2; exit 1
fi
"${build_dir}/tools/spnl_partition" "${smoke_dir}/graph.adj" --k=8 \
  --algo=spnl --out="${smoke_dir}/route_storm.txt" \
  --inject-io-faults=seed:3,eintr:write@1@4,short:write@r2@2 --quiet
cmp "${smoke_dir}/route_text.txt" "${smoke_dir}/route_storm.txt"

# One adversarial scenario-matrix cell under the sanitizers: a planted-
# partition graph relabeled by the community-interleaving attack order, then
# partitioned with the 2PS clustering prepass. This walks the prepass's
# vote/refine/pack loops and the hint-table injection into SPNL — the code
# paths the quality plane gates — with ASan/UBSan (or TSan) watching.
"${build_dir}/tools/spnl_gen" --out="${smoke_dir}/planted_adv.adj" \
  --model=planted --vertices=6000 --communities=8 --mu=0.3 \
  --order=adversarial --labels="${smoke_dir}/planted_adv_labels.txt" --seed=5
"${build_dir}/tools/spnl_partition" "${smoke_dir}/planted_adv.adj" --k=8 \
  --prepass=2ps --out="${smoke_dir}/route_prepass.txt"
# The prepass must not have degraded on a healthy planted graph, and the
# route must be a complete assignment (one line per vertex plus header).
[[ "$(tail -n +2 "${smoke_dir}/route_prepass.txt" | wc -l)" == "6000" ]]

# Kill-9 crash torture over the instrumented tools: SIGKILL mid-publish in
# convert/checkpoint/drain must never leave a torn artifact that a fresh
# (sanitized) process accepts.
bash "${repo_root}/tools/crash_torture.sh" --tools "${build_dir}/tools" \
  --work-dir "${build_dir}/sanitize_crash_torture"

echo "sanitize smoke (${mode}): OK"
