// The page-table workload: one NR-replicated AddressSpace<PageTable> on a
// 4-core, 2-node kernel, driven by 4 threads. Each thread keeps a sliding
// set of live 4 KiB mappings in its own VA window; a step maps one new page,
// resolves 4 live pages and unmaps the oldest.
#ifndef VNROS_PERFBENCH_VM_H_
#define VNROS_PERFBENCH_VM_H_

#include <string>
#include <vector>

#include "perfbench/common.h"

namespace vnbench {

struct VmOptions {
  u64 seed = 1;
  double seconds = 1;
  bool trace = false;  // alternate traced and untraced slices
  usize setups = 1;
  usize keep_spans = 0;  // per thread
};

struct VmResult {
  Failures failures;
  Metrics e2e;
  Metrics layers;
  double tracing_overhead = 0;
  std::vector<Tracer> tracers;  // one per thread
  u64 origin_ns = 0;
};

VmResult run_vm(const VmOptions& opt);

}  // namespace vnbench

#endif  // VNROS_PERFBENCH_VM_H_
