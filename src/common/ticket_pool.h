#ifndef EMP_COMMON_TICKET_POOL_H_
#define EMP_COMMON_TICKET_POOL_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace emp {

/// The library's one pool for parallel compute. Runs `fn(i)` for every i
/// in [0, count) on `threads` workers (the calling thread plus
/// `threads - 1` spawned ones) pulling indices from a shared ticket
/// counter; only *who* runs an index depends on timing. Once `*stop` is
/// set no further index is handed out. If `per_worker` is set it receives
/// how many indices each worker ran, the calling thread first.
/// Construction iterations, portfolio replicas and the blocks of a map
/// build (`RunBlocks`) all run on it.
///
/// An exception thrown by `fn` ends its worker; the others drain the rest
/// of the indices, every thread is joined, and the first exception is
/// rethrown on the calling thread. A thread that cannot be started leaves
/// its share to the workers that did start.
template <typename Fn>
void RunTicketPool(int count, int threads, Fn&& fn,
                   const std::atomic<bool>* stop = nullptr,
                   std::vector<int64_t>* per_worker = nullptr) {
  threads = std::max(threads, 1);
  if (per_worker != nullptr) per_worker->assign(threads, 0);
  std::atomic<int> next{0};
  std::mutex failure_mu;
  std::exception_ptr failure;  // Guarded by failure_mu.
  auto drain = [&](int worker) {
    int64_t ran = 0;
    try {
      int index;
      while ((stop == nullptr || !stop->load(std::memory_order_relaxed)) &&
             (index = next.fetch_add(1, std::memory_order_relaxed)) < count) {
        fn(index);
        ++ran;
      }
    } catch (...) {
      std::lock_guard<std::mutex> lock(failure_mu);
      if (failure == nullptr) failure = std::current_exception();
    }
    if (per_worker != nullptr) (*per_worker)[static_cast<size_t>(worker)] = ran;
  };
  std::vector<std::thread> pool;
  try {
    for (int t = 1; t < threads; ++t) pool.emplace_back(drain, t);
  } catch (...) {
    // Fewer workers: the ticket counter still hands out every index.
  }
  drain(0);
  for (std::thread& worker : pool) worker.join();
  if (failure != nullptr) std::rethrow_exception(failure);
}

/// Runs `fn(begin, end)` over [0, n) cut into consecutive blocks of
/// `block` indices, on one worker per hardware thread but never more
/// workers than blocks, so a range of one block runs inline on the caller.
/// The blocks are fixed by `n` and `block` alone: a caller that writes
/// only the slots of its own block gets the same output at any core count.
/// `stop` is as in `RunTicketPool`; blocks are handed out in order, so
/// when it is set every block below the current one has been handed out.
template <typename Fn>
void RunBlocks(int64_t n, int64_t block, Fn&& fn,
               const std::atomic<bool>* stop = nullptr) {
  const int blocks = static_cast<int>((n + block - 1) / block);
  const int hardware =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  RunTicketPool(
      blocks, std::min(hardware, blocks),
      [&](int b) {
        const int64_t begin = static_cast<int64_t>(b) * block;
        fn(begin, std::min(n, begin + block));
      },
      stop);
}

}  // namespace emp

#endif  // EMP_COMMON_TICKET_POOL_H_
