#!/bin/sh
# Exit-code smoke for trace_analyze on both file kinds it reads.
#   trace_analyze_smoke.sh <trace_analyze> <workload_run> <scratch dir>
# Writes a --make-violation recording and a (tiny, possibly empty) HTEL trace
# from workload_run --trace into the scratch dir, then checks each verdict.
set -u
analyze=$1
workload_run=$2
dir=$3
mkdir -p "$dir" || exit 1
rec=$dir/violation.bin
trace=$dir/trace.bin
failed=0
HT_SCALE=0.01  # the workload_run trace only has to exist
export HT_SCALE

expect() {
  want=$1
  shift
  "$@" >/dev/null 2>&1
  got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: '$*' exited $got, expected $want"
    failed=1
  fi
}

expect 0 "$analyze" --make-violation "$rec"
expect 0 "$workload_run" --profile hsqldb6 --trials 1 --trace "$trace"
expect 9 "$analyze" "$rec"               # recording: serializability violation
expect 0 "$analyze" "$trace"             # HTEL magic: runs `profile`
expect 0 "$analyze" export "$trace" --check
expect 2 "$analyze" lint "$trace"        # not a recording: bad magic
expect 3 "$analyze" export "$rec"        # not a trace: load failure
exit $failed
