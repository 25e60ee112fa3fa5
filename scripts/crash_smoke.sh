#!/usr/bin/env bash
# Crash-recovery smoke loop: SIGKILL the ingest helper at armed points
# inside the WAL commit path, over and over against ONE durable store,
# recovering on every reopen. After each kill the helper's verify mode
# reopens the store, asserts every acknowledged ingest survived, and
# reports recovery stats; the per-iteration reports are collected into a
# JSON artifact. Any lost ack or unexpected helper exit fails the run.
#
# A second loop does the same against a 2-shard sharded catalog, killing
# the helper MID-TENANT-MIGRATION (inside the routing journal's
# begin/copy/route-move appends) and verifying the exactly-one-owner
# recovery invariant after every kill.
#
# Usage: scripts/crash_smoke.sh <helper-binary> <iterations> <out-json>
#   helper-binary  build/tests/crash_ingest_helper
#   iterations     how many kill+recover rounds per loop (the ingest loop
#                  cycles payload -> precommit -> postcommit -> segment ->
#                  writeback, the fourth killing mid-raw-segment-seal and
#                  the fifth after an acked ingest whose page write-back
#                  failed and a forced checkpoint; the migration loop
#                  varies the armed payload-append count)
#   out-json       where to write the collected recovery stats
set -euo pipefail

HELPER="$1"
ITERATIONS="$2"
OUT_JSON="$3"

STORE="$(mktemp -d "${TMPDIR:-/tmp}/aims_crash_smoke.XXXXXX")"
MSTORE="$(mktemp -d "${TMPDIR:-/tmp}/aims_crash_msmoke.XXXXXX")"
trap 'rm -rf "${STORE}" "${MSTORE}"' EXIT

MODES=(payload precommit postcommit segment writeback)
RUNS=""

for ((i = 0; i < ITERATIONS; ++i)); do
  mode="${MODES[$((i % ${#MODES[@]}))]}"
  echo "== crash smoke ${i}: kill during ${mode} =="
  status=0
  "${HELPER}" "${STORE}" "${mode}" 1 || status=$?
  # The helper must die by SIGKILL (bash reports 128+9); anything else
  # means the crash hook failed or the harness broke.
  if [[ "${status}" -ne 137 ]]; then
    echo "crash smoke: helper exited ${status}, expected SIGKILL (137)" >&2
    exit 1
  fi
  # The black-box contract: the flight recorder's periodically-persisted
  # bundle must have survived the SIGKILL. (Later rounds rotate it to
  # .prev on reopen; either file proves survival.)
  if [[ ! -f "${STORE}/flightrecord.json" &&
        ! -f "${STORE}/flightrecord.json.prev" ]]; then
    echo "crash smoke: no flight-record bundle survived the SIGKILL" >&2
    exit 1
  fi
  report="$("${HELPER}" "${STORE}" verify 0)"
  echo "   recovered: ${report}"
  RUNS+="${RUNS:+,
    }{\"iteration\": ${i}, \"crash_mode\": \"${mode}\", \"recovery\": ${report}}"
done

# Mid-migration kill loop: vary the armed payload-append count so the
# SIGKILL lands at different points of the migration protocol (the
# journaled begin record, a copy's block puts, the route-move record).
MRUNS=""
for ((i = 0; i < ITERATIONS; ++i)); do
  # 1..8 walks the kill point through the whole protocol: the journaled
  # begin record, the copy's block puts, and past the route-move record
  # (where recovery places the session on the TARGET — still one owner).
  appends=$((1 + i % 8))
  echo "== crash smoke (migration) ${i}: kill after ${appends} payload append(s) =="
  status=0
  "${HELPER}" "${MSTORE}" mcrash "${appends}" || status=$?
  if [[ "${status}" -ne 137 ]]; then
    echo "crash smoke: migration helper exited ${status}, expected SIGKILL (137)" >&2
    exit 1
  fi
  report="$("${HELPER}" "${MSTORE}" mverify 0)"
  echo "   recovered: ${report}"
  MRUNS+="${MRUNS:+,
    }{\"iteration\": ${i}, \"payload_appends\": ${appends}, \"recovery\": ${report}}"
done

mkdir -p "$(dirname "${OUT_JSON}")"
# Preserve the last surviving bundles as artifacts next to the stats.
for bundle in "${STORE}/flightrecord.json" "${STORE}/flightrecord.json.prev"; do
  [[ -f "${bundle}" ]] &&
    cp "${bundle}" "$(dirname "${OUT_JSON}")/crash_$(basename "${bundle}")"
done
if [[ -f "${MSTORE}/flightrecord.json" ]]; then
  cp "${MSTORE}/flightrecord.json" \
    "$(dirname "${OUT_JSON}")/crash_migration_flightrecord.json"
fi
cat > "${OUT_JSON}" <<EOF
{
  "smoke": "crash_recovery",
  "iterations": ${ITERATIONS},
  "runs": [
    ${RUNS}
  ],
  "migration_runs": [
    ${MRUNS}
  ]
}
EOF
echo "== crash smoke: ${ITERATIONS} ingest + ${ITERATIONS} mid-migration kill+recover rounds, zero acked ingests lost, one owner per session =="
echo "== flight-record bundle survived every SIGKILL =="
echo "== recovery stats in ${OUT_JSON} =="
