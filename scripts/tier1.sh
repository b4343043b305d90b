#!/usr/bin/env bash
# Tier-1 verification over three build trees:
#
#   build       the default configuration (RelWithDebInfo): the full ctest
#               suite, the NR perf smoke, the chaos, ring and VTP stages and
#               the quick YCSB and A9 sweeps. The bench binaries run from
#               this tree; perfbench compiles the same sources, metrics and
#               all, through its own CMake.
#   build-tsan  -DVNROS_SAN=thread: the NR, obs, ring and VTP suites, the
#               code that shares state across threads (the fence-based
#               batched publish in src/nr/log.h falls back to per-entry
#               release publishes under TSan, so the run checks the fallback
#               path while stressing the combiner protocol).
#   build-asan  -DVNROS_SAN=address: ASan and UBSan together, built with
#               -fno-sanitize-recover=all so the first report of either
#               fails the run. It covers the fault-injection, chaos, parser
#               and syscall paths (see that stage's comment).
#
#   ./scripts/tier1.sh [jobs]
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${1:-2}"

echo "== tier-1: build + ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j"${JOBS}"
ctest --test-dir build --output-on-failure

echo
echo "== tier-1: TSan build (nr_test + nr_log_wraparound_test + obs_test) =="
cmake -B build-tsan -S . -DVNROS_SAN=thread >/dev/null
cmake --build build-tsan -j"${JOBS}" --target nr_test nr_log_wraparound_test obs_test
./build-tsan/tests/nr_test
./build-tsan/tests/nr_log_wraparound_test
./build-tsan/tests/obs_test

echo
echo "== tier-1: NR perf smoke (combining distribution) =="
# Batching regressions are silent: NR stays correct as a slow ticket lock.
# The smoke binary drives 16 writers through the wait window and fails if
# batch_ops p99 < 8, combines > combined_ops, or no handoffs happened.
cmake --build build -j"${JOBS}" --target nr_perf_smoke
./build/bench/nr_perf_smoke

echo
echo "== tier-1: chaos (ctest -L '^chaos$') =="
# One binary, four presets (legacy, churn, heal, ring) over the same eight
# seeds plus the admission and in-flight churn tests, every client op on the
# VTP stream plane. Labeled so the suite runs as a stage of its own.
ctest --test-dir build -L '^chaos$' --output-on-failure

echo
echo "== tier-1: YCSB quick sweep (library clients on the measured path) =="
# blockstore_ycsb drives every virtual client through the library
# BlockStoreClient's non-blocking core — the client chaos and the app VCs
# check — and exits nonzero when a get returns bytes that are neither the
# key's preload nor a value some client wrote to it. It runs from a
# temporary directory so the committed BENCH_blockstore_ycsb.json is not
# overwritten.
ycsb_bin="$(pwd)/build/bench/blockstore_ycsb"
ycsb_dir="$(mktemp -d)"
trap 'rm -rf "${ycsb_dir}"' EXIT
(cd "${ycsb_dir}" && VNROS_BENCH_QUICK=1 "${ycsb_bin}")

echo
echo "== tier-1: A9 anti-entropy quick sweep (library reader, checked reads) =="
# ablate_anti_entropy repairs one node from another while a library
# BlockStoreClient reads the serving node over a VTP stream. It exits
# nonzero when a read is neither the serving node's bytes for the key nor
# its tombstone. Like the YCSB stage it runs from a temporary directory, so
# the committed BENCH_ablate_anti_entropy.json is not overwritten.
a9_bin="$(pwd)/build/bench/ablate_anti_entropy"
a9_dir="$(mktemp -d)"
trap 'rm -rf "${ycsb_dir}" "${a9_dir}"' EXIT
(cd "${a9_dir}" && VNROS_BENCH_QUICK=1 "${a9_bin}")

echo
echo "== tier-1: SysRing (ring VCs + edge cases + TSan) =="
# The async submission/completion rings sit on the storage node's whole
# data plane (serve pool, repair RPCs); clients read their streams with
# direct vtp_recv calls. Gate on: the ring
# refinement/uniqueness VCs and the no-lost-wakeup VCs of the
# readiness-driven reactor (kernel/ring_readiness_seed1..3); the
# SQ-full/CQ-overflow/parking edge cases, cancel-on-close and the
# parked-re-execution tripwire (1000 recvs parked on idle sockets re-run 0
# times over 100 passes, then exactly once per datagram) in
# ring_syscall_test (the chaos stage runs the ring-fault preset); and a TSan
# pass over the ring suite. Under TSan, RingThreadsTest runs one thread that
# ticks and delivers into a VtpStack (marking the readiness record from the
# rx path) against one that drives reactor passes, which checks the lock
# order ring -> net stack -> readiness record and the completion hand-off.
./build/tests/vc_suite_test --gtest_filter='*ring*:*Ring*'
./build/tests/ring_syscall_test
cmake --build build-tsan -j"${JOBS}" --target ring_syscall_test vc_suite_test
./build-tsan/tests/ring_syscall_test
./build-tsan/tests/vc_suite_test --gtest_filter='*ring*:*Ring*'

echo
echo "== tier-1: VTP transport (VCs + protocol suite + chaos-vtp + TSan) =="
# The verified stream transport: the blockstore's only client wire. Gate on:
# the vtp_refines_pipe VC family (stream refines the in-kernel pipe spec under
# loss/dup/reorder/partition), the protocol unit suite, the adversarial-fabric
# chaos matrix, and a TSan pass (the stack mutates conn state under its lock
# from both the syscall and rx paths).
./build/tests/vc_suite_test --gtest_filter='*vtp*:*Vtp*'
./build/tests/net_test --gtest_filter='*Vtp*'
ctest --test-dir build -L chaos-vtp --output-on-failure
cmake --build build-tsan -j"${JOBS}" --target net_test
./build-tsan/tests/net_test --gtest_filter='*Vtp*'

echo
echo "== tier-1: ASan+UBSan build (fs_test + app_test + chaos_test + integration_test + checksums + VTP + syscalls + fs and app VCs) =="
# The fault-injection and chaos paths unwind through error branches the
# happy-path suite never touches; run them — every chaos preset — under
# address+UB sanitizers. The build does not recover from a report
# (-fno-sanitize-recover=all), so a UB diagnostic such as a signed overflow
# in the stream framing, repair/GC or seq arithmetic fails the stage just
# as a heap overflow does. The checksum tests and VCs run here too: the
# hardware crc32c path does unaligned 8-byte loads in a target-attributed
# function, and the corruption VCs feed the stacks hand-made bad segments.
# So do the VTP unit tests and VCs: the stack's tuple index holds iterators
# into its connection map, and an entry that outlives its connection is a
# lifetime bug the sanitizers see first. And so do the syscall and ring
# tests and the sys_* VCs: the table's generic decoders parse untrusted
# frames byte by byte, and the marshalling VC feeds them every strict prefix
# of every syscall's frame; the header round-trip VCs (*header_roundtrip*)
# do the same for the IP, UDP and VTP headers. The app VCs (Vc_app.*) drive
# the node's peer call — replica pushes, read-repair, anti-entropy,
# tombstone GC — through its nested ring waits and reply stash, and
# app/wire_* feeds the node every strict prefix of every op's request. The fs VCs (*fs_*: kernel/fs_* and
# kernel/nrfs_*) drive the fs commit path, which decodes journal records
# byte by byte and runs under injected device faults. integration_test's
# cluster test boots through Machine and the SimCluster rig, the boot and
# world-step path every cluster harness shares.
cmake -B build-asan -S . -DVNROS_SAN=address >/dev/null
cmake --build build-asan -j"${JOBS}" --target fs_test app_test chaos_test integration_test \
  base_test net_test syscall_test ring_syscall_test vc_suite_test
./build-asan/tests/fs_test
./build-asan/tests/app_test
./build-asan/tests/chaos_test
./build-asan/tests/integration_test
./build-asan/tests/base_test
./build-asan/tests/net_test
./build-asan/tests/syscall_test
./build-asan/tests/ring_syscall_test
./build-asan/tests/vc_suite_test --gtest_filter='*crc*:*corruption*:*vtp*:*header_roundtrip*:*sys_*:*fs_*:Vc_app.*'

echo
echo "tier1: OK"
