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

echo "== smoke: replicate packs vs per-process (store digest identity) =="
# Two seed families (counter and bank, five seeds each) through the
# pool executor with replicate packing on and off.  On two workers each
# family runs as stripes of 3 and 2 seeds.  The two result stores must
# hold exactly the same digest-keyed records.
PACK_SUITE=$(mktemp /tmp/smoke_packs_XXXX.json)
cat > "$PACK_SUITE" <<'JSON'
{
  "name": "smoke-packs",
  "description": "seed replicates for the pack identity check",
  "base": {"workload": "counter", "scale": "tiny", "threads": 2},
  "axes": [["workload", ["counter", "bank"]], ["seed", [1, 2, 3, 4, 5]]]
}
JSON
PACKS_ON_DIR=${SMOKE_CACHE_DIR:-.smoke-cache}-packs-on
PACKS_OFF_DIR=${SMOKE_CACHE_DIR:-.smoke-cache}-packs-off
rm -rf "$PACKS_ON_DIR" "$PACKS_OFF_DIR"
python -m repro suite run --file "$PACK_SUITE" --jobs 2 \
  --cache-dir "$PACKS_ON_DIR" >/dev/null
python -m repro suite run --file "$PACK_SUITE" --jobs 2 --no-packs \
  --cache-dir "$PACKS_OFF_DIR" >/dev/null
on_digests=$(python -m repro exec-status --cache-dir "$PACKS_ON_DIR" --digests)
off_digests=$(python -m repro exec-status --cache-dir "$PACKS_OFF_DIR" --digests)
[ "$(echo "$on_digests" | wc -l)" -eq 10 ] || {
  echo "smoke FAILED: pack run did not store all 10 results"; exit 1; }
[ "$on_digests" = "$off_digests" ] || {
  echo "smoke FAILED: pack-on and pack-off stores diverge"; exit 1; }
echo "smoke OK: replicate packs store digest-identical results"

echo "== smoke: machine reset-reuse vs rebuild (store digest identity) =="
# The same seed families with the pack warm path disabled: every member
# rebuilds its machine from scratch.  Stores must match the reset-reuse
# run digest for digest.
RESET_OFF_DIR=${SMOKE_CACHE_DIR:-.smoke-cache}-reset-off
rm -rf "$RESET_OFF_DIR"
REPRO_NO_RESET=1 python -m repro suite run --file "$PACK_SUITE" --jobs 2 \
  --cache-dir "$RESET_OFF_DIR" >/dev/null
reset_off_digests=$(python -m repro exec-status --cache-dir "$RESET_OFF_DIR" --digests)
[ "$on_digests" = "$reset_off_digests" ] || {
  echo "smoke FAILED: reset-reuse and rebuild stores diverge"; exit 1; }
rm -f "$PACK_SUITE"
rm -rf "$PACKS_ON_DIR" "$PACKS_OFF_DIR" "$RESET_OFF_DIR"
echo "smoke OK: machine reset-reuse stores digest-identical results"

echo "== smoke: incremental figure pipeline =="
bash "$(dirname "$0")/smoke_figures.sh"

echo "== smoke: observability (manifests + obs-on/off store identity) =="
bash "$(dirname "$0")/smoke_obs.sh"
