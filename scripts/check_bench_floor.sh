#!/usr/bin/env bash
# CI perf guard over the bench_hotpath and bench_scaling JSON artifacts.
#
#   check_bench_floor.sh [HOTPATH_JSON...] [SCALING_JSON]
#
# The last argument is BENCH_scaling.json; every argument before it is
# one bench_hotpath run's BENCH_hotpath.json (defaults:
# build/bench/BENCH_hotpath.json and build/bench/BENCH_scaling.json). CI
# passes three hotpath runs. Each guarded hot-path value is the median
# over the runs given, and the script fails when a guarded row's median
# regresses more than 2x against its pinned floor - one noisy run cannot
# trip it, a real regression shows in every run. Then it fails when a
# guarded same-run ratio exceeds its ceiling. Floors are the ns costs measured on the reference machine
# (Xeon @ 2.1 GHz, AVX2) when the row was introduced; CI runners are
# slower and noisier than the reference box, which is exactly why the
# trip-wire is a 2x band and not the floor itself - it catches "the fast
# path fell off a cliff" (a missed inline resolve, a devirtualization
# regression, a kernel falling back to scalar), not machine-to-machine
# scatter.
#
# Guarded rows:
#   abi_dispatch / read8   abi_ns   - the header-inlined ABI fast path
#   sampling / sampled_out drop_ns  - the inline drop-policy skip
#   range_memcpy / b4096   vft_ns   - SIMD range interposition, L1 copies
#   range_memcpy / b65536  vft_ns   - SIMD range interposition, L2 copies
#   atomic_dispatch / load acquire_ns - armed fast-epoch acquire load
#   atomic_dispatch / load relaxed_ns - relaxed load on the fast-epoch
#                                       skip (no lock: the publisher's
#                                       own epoch is armed)
#   history / same_epoch_write on_ns  - same-epoch writes with the access
#                                       history installed: the ring records
#                                       only on the slow path, so this row
#                                       pins "installed but never touched"
#                                       at the inline fast-path cost
#
# Ratio rows (range_memcpy ratio vs raw memcpy) are deliberately NOT
# guarded: the ratio divides by raw memcpy throughput, which varies more
# across runners than the vft side does.
#
# Guarded same-run ratios (both sides measured in the same run, so the
# ratio carries across runner speeds where an ns floor would not):
#   atomic_dispatch / load  relaxed_vs_acquire <= 1.5 (hotpath median)
#     - a relaxed load runs the acquire load's fast-epoch skip; a lock
#       or a table insert back on the relaxed path shows up as ~2.
#   read_shared_ns_access / threads_4  abi <= 8 x packed
#     - the deployed interposition stack against the out-of-line packed
#       fast path at 4 threads. A shared-line write on the per-access path
#       (a counter every thread bumps) shows up here as a ratio of ~18.
set -u

if [[ $# -ge 2 ]]; then
  HOTPATH_JSONS=("${@:1:$#-1}")
  SCALING_JSON="${!#}"
else
  HOTPATH_JSONS=("${1:-build/bench/BENCH_hotpath.json}")
  SCALING_JSON="build/bench/BENCH_scaling.json"
fi

for f in "${HOTPATH_JSONS[@]}" "$SCALING_JSON"; do
  if [[ ! -f "$f" ]]; then
    echo "check_bench_floor: $f not found" >&2
    exit 1
  fi
done

# Pinned floors (ns) and the 2x regression ceilings derived from them.
# Reference values from BENCH_hotpath.json at the PR that added each row.
#   abi_dispatch read8 abi_ns:      3.08
#   sampling sampled_out drop_ns:   3.25
#   range_memcpy b4096 vft_ns:    322
#   range_memcpy b65536 vft_ns:  4680
#   atomic_dispatch load acquire_ns: 31.2
#   atomic_dispatch load relaxed_ns: 56.1
#   history same_epoch_write on_ns:  3.45
fail=0
# Median of one field of one row over every hotpath run; empty when any
# run lacks the row.
median_field() {
  python3 - "$1" "$2" "$3" "${HOTPATH_JSONS[@]}" <<'EOF'
import json, statistics, sys
section, name, field, *paths = sys.argv[1:]
vals = []
for path in paths:
    for rec in json.load(open(path)).get("records", []):
        if rec.get("section") == section and rec.get("name") == name:
            vals.append(float(rec[field]))
            break
if len(vals) == len(paths):
    print(statistics.median(vals))
EOF
}

check() {
  local section="$1" name="$2" field="$3" floor="$4"
  local value
  value=$(median_field "$section" "$name" "$field")
  if [[ -z "$value" ]]; then
    echo "FAIL  $section/$name: row missing from a hotpath run" >&2
    fail=1
    return
  fi
  # Regression trip-wire: measured > 2x the pinned floor.
  if python3 -c "import sys; sys.exit(0 if float('$value') <= 2.0 * float('$floor') else 1)"; then
    printf 'ok    %-28s %-10s %10s ns  (floor %s, ceiling %s)\n' \
      "$section/$name" "$field" "$value" "$floor" \
      "$(python3 -c "print(2.0 * float('$floor'))")"
  else
    printf 'FAIL  %-28s %-10s %10s ns  exceeds 2x floor %s\n' \
      "$section/$name" "$field" "$value" "$floor" >&2
    fail=1
  fi
}

# Ceiling on the hotpath median of a same-run ratio field.
check_hot_ratio() {
  local section="$1" name="$2" field="$3" max="$4"
  local value
  value=$(median_field "$section" "$name" "$field")
  if [[ -z "$value" ]]; then
    echo "FAIL  $section/$name: row missing from a hotpath run" >&2
    fail=1
  elif python3 -c "import sys; sys.exit(0 if float('$value') <= float('$max') else 1)"; then
    printf 'ok    %-28s %s = %sx  (ceiling %sx)\n' \
      "$section/$name" "$field" "$value" "$max"
  else
    printf 'FAIL  %-28s %s = %sx  exceeds ceiling %sx\n' \
      "$section/$name" "$field" "$value" "$max" >&2
    fail=1
  fi
}

# Ceiling on num/den of one row of $SCALING_JSON.
check_ratio() {
  local section="$1" name="$2" num="$3" den="$4" max="$5"
  local verdict
  verdict=$(python3 - "$SCALING_JSON" "$section" "$name" "$num" "$den" "$max" <<'EOF'
import json, sys
path, section, name, num, den, cap = sys.argv[1:]
doc = json.load(open(path))
for rec in doc.get("records", []):
    if rec.get("section") == section and rec.get("name") == name:
        ratio = float(rec[num]) / float(rec[den])
        print(("ok" if ratio <= float(cap) else "FAIL"), "%.2f" % ratio)
        break
EOF
)
  if [[ -z "$verdict" ]]; then
    echo "FAIL  $section/$name: row missing from $SCALING_JSON" >&2
    fail=1
  elif [[ "$verdict" == ok* ]]; then
    printf 'ok    %-28s %s/%s = %sx  (ceiling %sx)\n' \
      "$section/$name" "$num" "$den" "${verdict#ok }" "$max"
  else
    printf 'FAIL  %-28s %s/%s = %sx  exceeds ceiling %sx\n' \
      "$section/$name" "$num" "$den" "${verdict#FAIL }" "$max" >&2
    fail=1
  fi
}

check abi_dispatch read8       abi_ns   3.08
check sampling     sampled_out drop_ns  3.25
check range_memcpy b4096       vft_ns   322
check range_memcpy b65536      vft_ns   4680
check atomic_dispatch load     acquire_ns 31.2
check atomic_dispatch load     relaxed_ns 56.1
check history      same_epoch_write on_ns 3.45
check_hot_ratio atomic_dispatch load relaxed_vs_acquire 1.5
check_ratio read_shared_ns_access threads_4 abi packed 8

if [[ "$fail" -ne 0 ]]; then
  echo "check_bench_floor: hot-path regression detected" >&2
  exit 1
fi
echo "check_bench_floor: all guarded rows within 2x of their pinned floors" \
  "and all guarded ratios within their ceilings"
