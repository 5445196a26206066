// Resident-memory probe for the peak_rss_mb metric: the growth of the
// process's peak resident set over a baseline taken after the benchmark's
// own inputs are allocated and touched, so generated traces and encoded
// datagrams never count against the program under test.
#pragma once

#include <cstdint>

namespace upbound::bench {

class PeakRssProbe {
 public:
  /// Returns freed heap to the kernel, resets the kernel's peak-RSS
  /// watermark to the current RSS and takes that as the baseline. Throws
  /// std::runtime_error when the watermark cannot be reset.
  void start();

  /// Peak RSS growth over the baseline since start(), in MiB.
  double peak_growth_mib() const;

 private:
  std::uint64_t baseline_kib_ = 0;
};

}  // namespace upbound::bench
