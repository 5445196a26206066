#include "cpus.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>

namespace upbound::bench {

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

void pin_current_thread(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

std::vector<int> rotated(const std::vector<int>& cpus, std::size_t k) {
  std::vector<int> out = cpus;
  if (!out.empty()) {
    std::rotate(out.begin(),
                out.begin() + static_cast<std::ptrdiff_t>(k % out.size()),
                out.end());
  }
  return out;
}

}  // namespace upbound::bench
