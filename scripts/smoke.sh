#!/usr/bin/env bash
# End-to-end smoke: one W0 sweep AND one named scenario suite through
# the parallel executor with the result cache, each run twice — the
# second pass must perform ZERO simulation re-executions (the ISSUE
# acceptance criteria), and exec-status must see the cached entries.
# Run from the repo root (or via `make smoke`).
set -euo pipefail

export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}
CACHE_DIR=${SMOKE_CACHE_DIR:-.smoke-cache}
SWEEP=(sweep counter --scale tiny --procs 2 --w0-values 2 8
       --jobs 2 --cache-dir "$CACHE_DIR" --progress)

rm -rf "$CACHE_DIR"

echo "== smoke: static analysis (repro check) =="
python -m repro check src tests scripts

echo "== smoke: cold sweep (parallel, populating cache) =="
cold=$(python -m repro "${SWEEP[@]}" 2>cold.err)
cat cold.err
grep -q "executed 3 of 3 submitted" cold.err  # 1 shared baseline + 2 gated runs

echo "== smoke: warm sweep (must be pure cache hits) =="
warm=$(python -m repro "${SWEEP[@]}" 2>warm.err)
cat warm.err
grep -q "executed 0 of 3 submitted" warm.err
grep -q "3 cache hit(s)" warm.err

[ "$cold" = "$warm" ] || { echo "smoke FAILED: cached sweep output differs"; exit 1; }

echo "== smoke: exec-status =="
status=$(python -m repro exec-status --cache-dir "$CACHE_DIR")
echo "$status"
echo "$status" | grep -q "3 entries"

echo "== smoke: named suite, cold (expand -> exec cache) =="
SUITE=(suite run --suite smoke --jobs 2 --cache-dir "$CACHE_DIR/suite"
       --progress)
suite_cold=$(python -m repro "${SUITE[@]}" 2>suite_cold.err)
cat suite_cold.err
grep -q "executed 3 of 4 submitted" suite_cold.err  # 4 scenarios, 1 deduplicated

echo "== smoke: named suite, warm (must be pure cache hits) =="
suite_warm=$(python -m repro "${SUITE[@]}" 2>suite_warm.err)
cat suite_warm.err
grep -q "executed 0 of 4 submitted" suite_warm.err
grep -q "3 cache hit(s)" suite_warm.err

[ "$suite_cold" = "$suite_warm" ] || {
  echo "smoke FAILED: cached suite output differs"; exit 1; }

rm -f cold.err warm.err suite_cold.err suite_warm.err
rm -rf "$CACHE_DIR"
echo "smoke OK: sweep + suite cached end-to-end, zero re-executions"

echo "== smoke: examples =="
python examples/energy_study.py --scale tiny --procs 2 >/dev/null
EXAMPLE_CACHE=$(mktemp -d /tmp/smoke_example_XXXX)
example=$(python examples/parallel_sweep.py --procs 2 --jobs 2 \
  --cache-dir "$EXAMPLE_CACHE" 2>/dev/null)
rm -rf "$EXAMPLE_CACHE"
echo "$example" | grep -q "^warm: executed 0 of" || {
  echo "smoke FAILED: parallel_sweep warm pass re-executed"; exit 1; }
echo "smoke OK: examples run"

echo "== smoke: pool (packs, machine reset) vs serial (store identity) =="
# Two seed families (counter and bank, five seeds each).  On two
# workers each family runs as replicate-pack stripes of 3 and 2 seeds,
# reusing one machine per stripe; the serial path builds a fresh
# machine per job.  Both stores must hold the same results under the
# same digests: `exec-status --digests` lists each digest with a hash
# of its result.
PACK_SUITE=$(mktemp /tmp/smoke_packs_XXXX.json)
cat > "$PACK_SUITE" <<'JSON'
{
  "name": "smoke-packs",
  "description": "seed replicates for the pool/serial identity check",
  "base": {"workload": "counter", "scale": "tiny", "threads": 2},
  "axes": [["workload", ["counter", "bank"]], ["seed", [1, 2, 3, 4, 5]]]
}
JSON
POOL_DIR=${SMOKE_CACHE_DIR:-.smoke-cache}-pool
SERIAL_DIR=${SMOKE_CACHE_DIR:-.smoke-cache}-serial
rm -rf "$POOL_DIR" "$SERIAL_DIR"
python -m repro suite run --file "$PACK_SUITE" --jobs 2 \
  --cache-dir "$POOL_DIR" >/dev/null
python -m repro suite run --file "$PACK_SUITE" --jobs 1 \
  --cache-dir "$SERIAL_DIR" >/dev/null
pool_listing=$(python -m repro exec-status --cache-dir "$POOL_DIR" --digests)
serial_listing=$(python -m repro exec-status --cache-dir "$SERIAL_DIR" --digests)
[ "$(echo "$pool_listing" | wc -l)" -eq 10 ] || {
  echo "smoke FAILED: pool run did not store all 10 results"; exit 1; }
[ "$pool_listing" = "$serial_listing" ] || {
  echo "smoke FAILED: pool and serial stores hold different results"; exit 1; }
rm -f "$PACK_SUITE"
rm -rf "$POOL_DIR" "$SERIAL_DIR"
echo "smoke OK: pool and serial runs store identical results"

echo "== smoke: incremental figure pipeline =="
bash "$(dirname "$0")/smoke_figures.sh"

echo "== smoke: observability (manifests + obs-on/off store identity) =="
bash "$(dirname "$0")/smoke_obs.sh"
