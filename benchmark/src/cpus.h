// CPU placement for repetitions. Other work on a shared host slows the
// cores it lands on for seconds to minutes at a time, so workloads rotate
// their threads over the allowed CPUs from one repetition to the next:
// together with reporting the best repetition (stats.h best_high), a run
// then measures the program on the least contended core it found rather
// than on whichever core the scheduler happened to pick.
#pragma once

#include <cstddef>
#include <vector>

namespace upbound::bench {

/// The CPUs this process may run on, ascending.
std::vector<int> allowed_cpus();

/// Restricts the calling thread to `cpus` (threads it creates later
/// inherit the mask). No-op when `cpus` is empty.
void pin_current_thread(const std::vector<int>& cpus);

/// `cpus` rotated left by `k`: repetition k's placement order.
std::vector<int> rotated(const std::vector<int>& cpus, std::size_t k);

}  // namespace upbound::bench
