#!/usr/bin/env bash
# Runs every experiment harness, teeing per-bench outputs next to an aggregate file.
# Usage: tools/run_benches.sh [output-dir]   (default: bench_results/) every
#                                            bench, then the gates as --gates
#                                            does (output in gates.txt, exit
#                                            status theirs)
#        tools/run_benches.sh --serve        smoke-test `concord serve` with canned
#                                            requests piped through the binary,
#                                            learning through --store-dir twice
#        tools/run_benches.sh --smoke        serve smoke plus, when
#                                            CONCORD_SMOKE_ASAN=1, the sanitized
#                                            test pass (tools/run_tests_asan.sh)
#        tools/run_benches.sh --gates        the single-shot acceptance gates, in
#                                            this order; exits non-zero if any
#                                            fails:
#             bench_store        warm restart checks byte-identically to a cold
#                                learn (BENCH_STORE.json)
#             bench_overload     greedy clients shed with `overloaded`, the
#                                well-behaved client's p99 in bound (writes
#                                BENCH_SERVE.json)
#             bench_batch        socket batch=100 >= 3x sequential, slots
#                                byte-identical (merged into BENCH_SERVE.json)
#             bench_analyze      learned sets analyze clean, pruned check equals
#                                unpruned (merged into BENCH_SERVE.json)
#             bench_incremental  one-config relearn >= 5x fresh, same bytes
#                                (BENCH_INCREMENTAL.json)
set -u

serve_smoke() {
  local concord=build/src/cli/concord
  if [ ! -x "$concord" ]; then
    echo "error: $concord not built (run: cmake --build build -j)" >&2
    exit 2
  fi
  local tmp
  tmp="$(mktemp -d)"
  # shellcheck disable=SC2064  # Expand now: $tmp is function-local.
  trap "rm -rf '$tmp'" EXIT
  # A tiny corpus with a shared structure, learned then served.
  for i in 1 2 3; do
    printf 'hostname DEV%s\ninterface Loopback0\n   ip address 10.14.%s.34\n' \
      "$i" "$i" > "$tmp/dev$i.cfg"
  done
  # Learned twice through the durable store: the second run finds its store
  # entry unchanged, skips the learn and writes the same bytes, and the store
  # verifies clean.
  "$concord" learn --configs "$tmp/*.cfg" --support 2 --quiet \
    --store-dir "$tmp/store" --out "$tmp/contracts.json" || exit 2
  relearn="$("$concord" learn --configs "$tmp/*.cfg" --support 2 \
    --store-dir "$tmp/store" --out "$tmp/relearned.json")" || exit 2
  if ! printf '%s\n' "$relearn" | grep -q "^store: dataset 'default' unchanged"; then
    echo "serve smoke FAILED: an unchanged learn --store-dir did not skip" >&2
    printf '%s\n' "$relearn" >&2
    exit 1
  fi
  if ! cmp -s "$tmp/contracts.json" "$tmp/relearned.json"; then
    echo "serve smoke FAILED: the skipped learn wrote different bytes" >&2
    exit 1
  fi
  if ! verify="$("$concord" store verify --store-dir "$tmp/store")"; then
    echo "serve smoke FAILED: store verify found damage" >&2
    printf '%s\n' "$verify" >&2
    exit 1
  fi
  # Canned v1 request file: a batched check, a cache-hitting repeat, the error
  # path (a request without "v", an unknown verb), stats, a metrics scrape,
  # shutdown.
  text1="$(sed -e 's/$/\\n/' "$tmp/dev1.cfg" | tr -d '\n')"
  cat > "$tmp/requests.ndjson" <<EOF
{"v":1,"verb":"check","contracts":"smoke","configs":[{"name":"dev1.cfg","text":"$text1"}]}
{"v":1,"verb":"check","contracts":"smoke","configs":[{"name":"dev1.cfg","text":"$text1"}]}
{"verb":"stats"}
{"v":1,"verb":"frobnicate"}
{"v":1,"verb":"stats"}
{"v":1,"verb":"metrics"}
{"v":1,"verb":"shutdown"}
EOF
  out="$("$concord" serve --contracts "smoke=$tmp/contracts.json" --quiet \
    < "$tmp/requests.ndjson")" || exit 2
  lines="$(printf '%s\n' "$out" | wc -l)"
  # Lines 3 and 4 are the canned errors; every other response must succeed.
  if [ "$lines" -ne 7 ] || printf '%s\n' "$out" | sed '3,4d' | grep -q '"ok":false'; then
    echo "serve smoke FAILED; responses:" >&2
    printf '%s\n' "$out" >&2
    exit 1
  fi
  if ! printf '%s\n' "$out" | sed -n 3p \
      | grep -q '"ok":false,"error":{"code":"missing_field",.*"detail":"v"}'; then
    echo "serve smoke FAILED: a request without \"v\" did not get missing_field" >&2
    printf '%s\n' "$out" >&2
    exit 1
  fi
  if ! printf '%s\n' "$out" | sed -n 4p \
      | grep -q '"ok":false,"error":{"code":"unknown_verb",.*"detail":"frobnicate"}'; then
    echo "serve smoke FAILED: an unknown verb did not get unknown_verb" >&2
    printf '%s\n' "$out" >&2
    exit 1
  fi
  if ! printf '%s\n' "$out" | sed -n 2p | grep -q '"cache_hits":1'; then
    echo "serve smoke FAILED: repeat request did not hit the config cache" >&2
    exit 1
  fi
  # The metrics verb must return valid Prometheus exposition that reflects the
  # checks above (two ok check requests, always-on per-stage counters). The
  # unknown verb counts under "invalid", never under a label of its own.
  metrics_line="$(printf '%s\n' "$out" | sed -n 6p)"
  if ! printf '%s\n' "$metrics_line" \
      | python3 "$(dirname "$0")/check_prom.py"; then
    echo "serve smoke FAILED: metrics exposition did not validate" >&2
    exit 1
  fi
  if ! printf '%s' "$metrics_line" \
      | grep -q 'concord_requests_total{verb=\\"check\\",status=\\"ok\\"} 2'; then
    echo "serve smoke FAILED: metrics missing the check request counter" >&2
    exit 1
  fi
  if printf '%s' "$metrics_line" | grep -q 'verb=\\"frobnicate\\"'; then
    echo "serve smoke FAILED: metrics carry a series for the unknown verb" >&2
    exit 1
  fi
  echo "serve smoke OK (store skip on relearn, store verified, $lines responses," \
    "error envelopes, cache hit on repeat, metrics valid)"
}

# bench_overload writes BENCH_SERVE.json whole; bench_batch and bench_analyze
# merge their sections into it, so they run after it.
gates() {
  local benches="bench_store bench_overload bench_batch bench_analyze bench_incremental"
  local name failed=""
  for name in $benches; do
    if [ ! -x "build/bench/$name" ]; then
      echo "error: build/bench/$name not built (run: cmake --build build -j" \
        "--target $benches)" >&2
      exit 2
    fi
  done
  for name in $benches; do
    echo "== $name"
    "build/bench/$name" || failed="$failed $name"
  done
  if [ -n "$failed" ]; then
    echo "gates FAILED:$failed" >&2
    exit 1
  fi
  echo "gates OK ($benches)"
}

if [ "${1:-}" = "--gates" ]; then
  gates
  exit 0
fi

if [ "${1:-}" = "--serve" ]; then
  serve_smoke
  exit 0
fi

if [ "${1:-}" = "--smoke" ]; then
  serve_smoke
  if [ "${CONCORD_SMOKE_ASAN:-0}" = "1" ]; then
    "$(dirname "$0")/run_tests_asan.sh" || exit 1
  fi
  exit 0
fi

out="${1:-bench_results}"
mkdir -p "$out"
for b in build/bench/*; do
  [ -x "$b" ] || continue
  name="$(basename "$b")"
  case "$name" in
    bench_store|bench_overload|bench_batch|bench_analyze|bench_incremental)
      continue ;;  # The gates, run below in their order.
    bench_micro|bench_serve) "$b" --benchmark_min_time=0.05 > "$out/$name.txt" 2>&1 ;;
    *) "$b" > "$out/$name.txt" 2>&1 ;;
  esac
  echo "== $name -> $out/$name.txt"
done
# In a subshell, so a failed gate still copies the results the gates wrote.
(gates) > "$out/gates.txt" 2>&1
status=$?
cp -f BENCH_STORE.json BENCH_SERVE.json BENCH_INCREMENTAL.json "$out/" 2>/dev/null
echo "== gates -> $out/gates.txt (exit $status)"
exit "$status"
