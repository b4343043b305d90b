#!/usr/bin/env bash
# Refreshes every BENCH_<name>.json in the repo root by running the
# JSON-emitting bench binaries in short mode (~40 s total). Benches that
# honor VNROS_BENCH_QUICK shrink their op counts; the rest are already
# CI-sized. ablate_contract_overhead (google-benchmark, no JSON artifact)
# is exercised by EXPERIMENTS.md directly and not run here.
#
#   ./scripts/bench_quick.sh [build-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
if [[ ! -d "${BUILD}/bench" ]]; then
  echo "error: ${BUILD}/bench not found — build first: cmake --build ${BUILD} -j" >&2
  exit 1
fi

export VNROS_BENCH_QUICK=1
for b in fig1a_vc_cdf ablate_nr_vs_locks ablate_fc_batch ablate_log_sharding \
         ablate_tlb_shootdown ablate_range_ops ablate_obs_overhead \
         ablate_anti_entropy ablate_sync_vs_ring \
         blockstore_ycsb; do
  bin="./${BUILD}/bench/${b}"
  if [[ ! -x "${bin}" ]]; then
    # A missing binary must fail the refresh, not silently skip its JSON —
    # a stale BENCH_*.json would masquerade as a fresh measurement.
    echo "error: ${bin} not built — run: cmake --build ${BUILD} -j --target ${b}" >&2
    exit 1
  fi
  echo "== ${b} =="
  "${bin}" | tail -3
done

echo
echo "refreshed:"
ls -1 BENCH_*.json
