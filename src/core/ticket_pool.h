#ifndef EMP_CORE_TICKET_POOL_H_
#define EMP_CORE_TICKET_POOL_H_

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace emp {

/// Runs `fn(i)` for every i in [0, count) on `threads` workers (the
/// calling thread plus `threads - 1` spawned ones) pulling indices from a
/// shared ticket counter; only *who* runs an index depends on timing.
/// Once `*stop` is set no further index is handed out. `per_worker`, if
/// set, observes how many indices each worker ran.
template <typename Fn>
void RunTicketPool(int count, int threads, Fn&& fn,
                   const std::atomic<bool>* stop = nullptr,
                   obs::Histogram* per_worker = nullptr) {
  std::atomic<int> next{0};
  auto drain = [&]() {
    int64_t ran = 0;
    int index;
    while ((stop == nullptr || !stop->load(std::memory_order_relaxed)) &&
           (index = next.fetch_add(1, std::memory_order_relaxed)) < count) {
      fn(index);
      ++ran;
    }
    obs::Observe(per_worker, static_cast<double>(ran));
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back(drain);
  drain();
  for (std::thread& worker : pool) worker.join();
}

}  // namespace emp

#endif  // EMP_CORE_TICKET_POOL_H_
