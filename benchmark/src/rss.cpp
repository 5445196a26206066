#include "rss.h"

#include <malloc.h>

#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>

namespace upbound::bench {

namespace {

/// A KiB field of /proc/self/status: VmRSS is the current resident set,
/// VmHWM its peak.
std::uint64_t status_field_kib(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) throw std::runtime_error("cannot open /proc/self/status");
  char line[256];
  std::uint64_t value = 0;
  bool found = false;
  const std::size_t len = std::strlen(field);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, len) == 0 && line[len] == ':') {
      unsigned long long kib = 0;
      found = std::sscanf(line + len + 1, "%llu", &kib) == 1;
      value = kib;
      break;
    }
  }
  std::fclose(f);
  if (!found) {
    throw std::runtime_error(std::string{"no "} + field +
                             " in /proc/self/status");
  }
  return value;
}

}  // namespace

void PeakRssProbe::start() {
  // Freed heap from earlier repetitions would otherwise be reused without
  // raising the RSS, hiding part of this repetition's footprint.
  malloc_trim(0);
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  const bool reset = f != nullptr && std::fputs("5", f) >= 0;
  if (f == nullptr || std::fclose(f) != 0 || !reset) {
    throw std::runtime_error("cannot reset the peak RSS via clear_refs");
  }
  baseline_kib_ = status_field_kib("VmRSS");
}

double PeakRssProbe::peak_growth_mib() const {
  const std::uint64_t peak = status_field_kib("VmHWM");
  return peak > baseline_kib_
             ? static_cast<double>(peak - baseline_kib_) / 1024.0
             : 0.0;
}

}  // namespace upbound::bench
