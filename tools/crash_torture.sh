#!/usr/bin/env bash
# Kill-9 crash-torture matrix over the REAL tools.
#
# Drives spnl_convert, spnl_partition, and spnl_server under seeded
# --inject-io-faults plans that SIGKILL the process (or tear a write and
# _exit) at chosen syscall indices mid-publish, then verifies from a fresh
# process that every surviving artifact is complete-old, complete-new, or
# absent — never a torn file accepted as valid:
#
#   1. sadj conversion killed at the write / fsync / rename / torn-write —
#      the published .sadj must still fully decode and byte-match exactly
#      one of the two inputs; a final clean conversion must be
#      byte-identical to an undisturbed reference.
#   2. streaming checkpoint runs (SPNL, SPN, SPNL+2PS) killed at seeded
#      write indices — whatever checkpoint survives must resume to a route
#      byte-identical to an uninterrupted run of the same configuration.
#   3. server SIGTERM drain killed at the first drain-checkpoint write —
#      the drain dir must hold no torn .ckpt, and a faultless restart on
#      the same dir must come up and shut down cleanly.
#
# Usage: crash_torture.sh [--tools DIR] [--work-dir DIR]
set -euo pipefail

script_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
tools_dir="${script_dir}/../build/tools"
work_dir=""

while [[ $# -gt 0 ]]; do
  case "$1" in
    --tools) tools_dir="$2"; shift 2 ;;
    --work-dir) work_dir="$2"; shift 2 ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

for tool in spnl_gen spnl_convert spnl_partition spnl_server spnl_client; do
  if [[ ! -x "${tools_dir}/${tool}" ]]; then
    echo "crash_torture: ${tools_dir}/${tool} not found (build first, or pass --tools)" >&2
    exit 2
  fi
done

if [[ -z "${work_dir}" ]]; then
  work_dir="$(mktemp -d /tmp/spnl_crash_torture.XXXXXX)"
fi
rm -rf "${work_dir}"
mkdir -p "${work_dir}"

die() { echo "crash_torture: FAIL: $*" >&2; exit 1; }

# Runs a tool expected to die by the plan: SIGKILL (rc 137) or the torn-write
# exit (rc 86). Anything else — including surviving — fails the harness.
expect_killed() {
  local what="$1"; shift
  local rc=0
  "$@" >/dev/null 2>&1 || rc=$?
  if [[ ${rc} -ne 137 && ${rc} -ne 86 ]]; then
    die "${what}: expected SIGKILL(137) or torn-exit(86), got rc=${rc}"
  fi
}

# ---------------------------------------------------------------------------
echo "crash_torture: [1/3] sadj conversion kill matrix"

old_adj="${work_dir}/old.adj"; new_adj="${work_dir}/new.adj"
ref_old="${work_dir}/ref_old.sadj"; ref_new="${work_dir}/ref_new.sadj"
target="${work_dir}/target.sadj"

"${tools_dir}/spnl_gen" --out="${old_adj}" --model=webcrawl --vertices=2000 --avg-degree=5 --seed=21
"${tools_dir}/spnl_gen" --out="${new_adj}" --model=webcrawl --vertices=3000 --avg-degree=5 --seed=22
"${tools_dir}/spnl_convert" "${old_adj}" --out="${ref_old}" --quiet
"${tools_dir}/spnl_convert" "${new_adj}" --out="${ref_new}" --quiet

cp "${ref_old}" "${target}"
convert_plans=(
  "seed:1,kill:write@r2"
  "seed:2,kill:write@r2"
  "seed:3,kill:write@r2"
  "kill:fsync@1"
  "kill:rename@1"
  "seed:6,torn:r2"
  "seed:7,torn:r2@5"
)
for plan in "${convert_plans[@]}"; do
  expect_killed "convert plan ${plan}" \
    "${tools_dir}/spnl_convert" "${new_adj}" --out="${target}" --quiet \
    "--inject-io-faults=${plan}"
  # The survivor must fully decode (eager sadj validation + complete body
  # scan) and byte-match exactly one of the two conversions.
  "${tools_dir}/spnl_convert" "${target}" --format=sadj --to=adj \
    --out="${work_dir}/decode.adj" --quiet \
    || die "convert plan ${plan}: surviving ${target} no longer decodes"
  if ! cmp -s "${target}" "${ref_old}" && ! cmp -s "${target}" "${ref_new}"; then
    die "convert plan ${plan}: survivor is neither the old nor the new sadj"
  fi
done

# Survivable faults (EINTR storm + short writes) must complete and publish
# the new file bit-for-bit.
"${tools_dir}/spnl_convert" "${new_adj}" --out="${target}" --quiet \
  "--inject-io-faults=seed:9,eintr:write@1@4,short:write@r2@3" \
  || die "survivable-fault conversion should have completed"
cmp -s "${target}" "${ref_new}" \
  || die "conversion under survivable faults is not byte-identical to the reference"
[[ -e "${target}.tmp" ]] && die "committed conversion left a stale ${target}.tmp"
echo "crash_torture: [1/3] OK (${#convert_plans[@]} kill sites, survivor decoded every time)"

# ---------------------------------------------------------------------------
echo "crash_torture: [2/3] checkpoint kills + resume byte-identity"

ckpt_graph="${work_dir}/ckpt_graph.adj"
"${tools_dir}/spnl_gen" --out="${ckpt_graph}" --model=webcrawl --vertices=20000 --avg-degree=6 --seed=7

# Default SPNL, SPN, and SPNL with the 2PS prepass hints (whose resumed run
# re-derives the hint table before restoring). Each configuration is killed at
# the same seeded write indices and compared against its own uninterrupted
# route.
ckpt_configs=("" "--algo=spn" "--prepass=2ps")
resumed=0; restarted=0
for c in "${!ckpt_configs[@]}"; do
  read -r -a flags <<< "${ckpt_configs[c]}"
  label="${ckpt_configs[c]:-default SPNL}"
  route_ref="${work_dir}/route_ref${c}.txt"
  "${tools_dir}/spnl_partition" "${ckpt_graph}" --k=4 --stream "${flags[@]}" \
    --out="${route_ref}" --quiet
  for seed in 1 2 3 4 5; do
    ckpt="${work_dir}/ckpt${c}_${seed}.bin"
    route_out="${work_dir}/route${c}_seed${seed}.txt"
    rm -f "${ckpt}" "${ckpt}.tmp" "${route_out}"
    expect_killed "checkpoint ${label} seed ${seed}" \
      "${tools_dir}/spnl_partition" "${ckpt_graph}" --k=4 --stream "${flags[@]}" \
      --checkpoint="${ckpt}" --checkpoint-every=1500 --out="${route_out}" --quiet \
      "--inject-io-faults=seed:${seed},kill:write@r8"
    if [[ -e "${ckpt}" ]]; then
      # A checkpoint survived the kill: it must be loadable and resume to the
      # exact same route as the uninterrupted run.
      "${tools_dir}/spnl_partition" "${ckpt_graph}" --k=4 --stream "${flags[@]}" \
        --resume-from="${ckpt}" --out="${route_out}" --quiet \
        || die "checkpoint ${label} seed ${seed}: surviving checkpoint failed to resume"
      resumed=$((resumed + 1))
    else
      # Killed before the first checkpoint published: restart from scratch.
      "${tools_dir}/spnl_partition" "${ckpt_graph}" --k=4 --stream "${flags[@]}" \
        --out="${route_out}" --quiet \
        || die "checkpoint ${label} seed ${seed}: fresh restart failed"
      restarted=$((restarted + 1))
    fi
    cmp -s "${route_ref}" "${route_out}" \
      || die "checkpoint ${label} seed ${seed}: recovered route differs from the reference"
  done
done
echo "crash_torture: [2/3] OK (${#ckpt_configs[@]} configurations: resumed=${resumed} fresh-restarted=${restarted}, all routes byte-identical)"

# ---------------------------------------------------------------------------
echo "crash_torture: [3/3] server drain killed mid-checkpoint, then restart"

srv_graph="${work_dir}/srv_graph.adj"
drain_dir="${work_dir}/drain"
sock="${work_dir}/spnl.sock"
mkdir -p "${drain_dir}"
"${tools_dir}/spnl_gen" --out="${srv_graph}" --model=webcrawl --vertices=8000 --avg-degree=5 --seed=9

"${tools_dir}/spnl_server" --listen="unix:${sock}" --drain-dir="${drain_dir}" \
  --idle-timeout=300 --quiet --inject-io-faults=kill:write@1 &
srv_pid=$!
for _ in $(seq 1 100); do [[ -S "${sock}" ]] && break; sleep 0.1; done
[[ -S "${sock}" ]] || die "server socket never appeared"

# Leave a detached, resumable session in the registry: the client drops its
# connection after 200 acked records and gives up (one attempt only). The
# drain below must find that session, so the client has to reach its
# injected disconnect. A client that fails on transport before it may have
# opened no session: retry.
client_err="${work_dir}/client.err"
for attempt in $(seq 1 20); do
  rc=0
  "${tools_dir}/spnl_client" "${srv_graph}" --connect="unix:${sock}" --k=4 \
    --inject-disconnect-after=200 --max-attempts=1 --quiet \
    >/dev/null 2>"${client_err}" || rc=$?
  grep -q "last failure: injected mid-stream disconnect" "${client_err}" && break
  grep -q "attempt budget (1) exhausted; last failure:" "${client_err}" \
    || die "client: expected its injected disconnect, got rc=${rc}: $(cat "${client_err}")"
  echo "crash_torture: client attempt ${attempt} failed before its disconnect: $(cat "${client_err}")" >&2
  sleep 0.2
done
grep -q "last failure: injected mid-stream disconnect" "${client_err}" \
  || die "client never reached its injected disconnect in ${attempt} attempt(s): $(cat "${client_err}")"

# SIGTERM triggers the drain; the very first drain-checkpoint write trips
# kill:write@1 and the server dies by SIGKILL mid-checkpoint.
kill -TERM "${srv_pid}"
rc=0; wait "${srv_pid}" || rc=$?
[[ ${rc} -eq 137 ]] || die "server: expected SIGKILL(137) during drain, got rc=${rc}"

# No torn checkpoint may have been published — at most a stale .tmp, which
# the restore scan ignores by extension.
published=$(find "${drain_dir}" -name '*.ckpt' | wc -l)
[[ "${published}" -eq 0 ]] || die "drain dir holds ${published} .ckpt file(s) after a pre-publish kill"

# A faultless restart on the same drain dir must come up (skipping any
# leftovers) and shut down cleanly.
"${tools_dir}/spnl_server" --listen="unix:${sock}" --drain-dir="${drain_dir}" \
  --quiet &
srv_pid=$!
for _ in $(seq 1 100); do [[ -S "${sock}" ]] && break; sleep 0.1; done
[[ -S "${sock}" ]] || die "restarted server socket never appeared"
kill -TERM "${srv_pid}"
rc=0; wait "${srv_pid}" || rc=$?
[[ ${rc} -eq 0 ]] || die "restarted server did not shut down cleanly (rc=${rc})"
echo "crash_torture: [3/3] OK (kill mid-drain left no torn .ckpt; restart clean)"

echo "crash_torture: PASS"
