// Executable specification contracts.
//
// The paper writes syscall and page-table specifications as Verus
// requires/ensures clauses that are *statically* discharged and erased from
// the compiled binary. C++ has no production SMT verifier, so vnros makes the
// same clauses *executable*: VNROS_REQUIRES / VNROS_ENSURES / VNROS_INVARIANT
// evaluate their condition when contract checking is enabled and abort with a
// diagnostic when a clause is violated.
//
// One run-time switch controls the cost: contracts_enabled() — tests and
// the VC runner flip it on. The off-state costs one relaxed atomic load per
// contract, which is why the benchmarked verified and unverified
// implementations match in Figure 1b/c (ablation A4 measures both states).
#ifndef VNROS_SRC_BASE_CONTRACTS_H_
#define VNROS_SRC_BASE_CONTRACTS_H_

#include <atomic>

namespace vnros {

namespace contract_detail {
extern std::atomic<bool> g_contracts_enabled;
extern std::atomic<unsigned long long> g_contracts_checked;

// Aborts the process with a formatted diagnostic. Out of line so the macro
// expansion stays small in hot functions.
[[noreturn]] void contract_failed(const char* kind, const char* condition, const char* file,
                                  int line);
}  // namespace contract_detail

// Globally enables/disables runtime contract evaluation. Returns the previous
// setting so scoped helpers can restore it.
inline bool set_contracts_enabled(bool enabled) {
  return contract_detail::g_contracts_enabled.exchange(enabled, std::memory_order_relaxed);
}

inline bool contracts_enabled() {
  return contract_detail::g_contracts_enabled.load(std::memory_order_relaxed);
}

// Number of contract clauses evaluated since process start; the proof-burden
// accounting in bench/ratio_proof_to_code reports this.
inline unsigned long long contracts_checked_count() {
  return contract_detail::g_contracts_checked.load(std::memory_order_relaxed);
}

// RAII helper: enables contracts for a scope (used by tests and the VC
// engine), restoring the previous mode on exit.
class ScopedContracts {
 public:
  explicit ScopedContracts(bool enabled = true) : previous_(set_contracts_enabled(enabled)) {}
  ~ScopedContracts() { set_contracts_enabled(previous_); }

  ScopedContracts(const ScopedContracts&) = delete;
  ScopedContracts& operator=(const ScopedContracts&) = delete;

 private:
  bool previous_;
};

}  // namespace vnros

#define VNROS_CONTRACT_IMPL(kind, cond)                                                     \
  do {                                                                                      \
    if (::vnros::contracts_enabled()) {                                                     \
      ::vnros::contract_detail::g_contracts_checked.fetch_add(1, std::memory_order_relaxed); \
      if (!(cond)) {                                                                        \
        ::vnros::contract_detail::contract_failed(kind, #cond, __FILE__, __LINE__);         \
      }                                                                                     \
    }                                                                                       \
  } while (0)

// Precondition: caller obligation at function entry.
#define VNROS_REQUIRES(cond) VNROS_CONTRACT_IMPL("requires", cond)
// Postcondition: implementation obligation at function exit.
#define VNROS_ENSURES(cond) VNROS_CONTRACT_IMPL("ensures", cond)
// Data-structure invariant: must hold at every quiescent point.
#define VNROS_INVARIANT(cond) VNROS_CONTRACT_IMPL("invariant", cond)

// Unconditional internal-consistency check, independent of contract mode.
// Used for machine-model integrity (e.g. physical memory bounds), where a
// violation means the simulation itself is broken, not the verified code.
#define VNROS_CHECK(cond)                                                                  \
  do {                                                                                     \
    if (!(cond)) {                                                                         \
      ::vnros::contract_detail::contract_failed("check", #cond, __FILE__, __LINE__);       \
    }                                                                                      \
  } while (0)

#endif  // VNROS_SRC_BASE_CONTRACTS_H_
