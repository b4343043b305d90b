// One simulated machine running one process: a Kernel built from a
// KernelConfig, its syscall dispatcher, one process spawned through the
// boot facade (pid 0 acting as init), and that process's Sys on core 0.
// Every harness that needs "a computer with a program on it" boots one of
// these; a harness that needs more processes spawns them through its own
// boot facade on `disp`.
#ifndef VNROS_SRC_KERNEL_MACHINE_H_
#define VNROS_SRC_KERNEL_MACHINE_H_

#include "src/base/contracts.h"
#include "src/kernel/kernel.h"
#include "src/kernel/syscall.h"

namespace vnros {

struct Machine {
  explicit Machine(const KernelConfig& config = {})
      : kernel(config), disp(kernel), pid(boot(disp)), sys(disp, pid, 0) {}

  // `sys` and `disp` hold references into the machine itself.
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  Kernel kernel;
  SyscallDispatcher disp;
  Pid pid;
  Sys sys;

 private:
  static Pid boot(SyscallDispatcher& disp) {
    Sys init(disp, kInvalidPid, 0);
    auto pid = init.spawn();
    VNROS_CHECK(pid.ok());
    return pid.value();
  }
};

}  // namespace vnros

#endif  // VNROS_SRC_KERNEL_MACHINE_H_
