#include "common/ticket_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

namespace emp {
namespace {

TEST(TicketPoolTest, RunsEveryIndexOnceAndCountsPerWorker) {
  std::vector<std::atomic<int>> runs(1000);
  std::vector<int64_t> per_worker;
  RunTicketPool(
      1000, 4, [&](int i) { runs[i].fetch_add(1); }, /*stop=*/nullptr,
      &per_worker);
  for (const std::atomic<int>& r : runs) EXPECT_EQ(r.load(), 1);
  ASSERT_EQ(per_worker.size(), 4u);
  EXPECT_EQ(std::accumulate(per_worker.begin(), per_worker.end(), int64_t{0}),
            1000);
}

TEST(TicketPoolTest, AnExceptionReachesTheCallerAfterTheJoin) {
  std::atomic<int> ran{0};
  EXPECT_THROW(RunTicketPool(64, 4,
                             [&](int i) {
                               if (i == 3) throw std::runtime_error("boom");
                               ran.fetch_add(1);
                             }),
               std::runtime_error);
  // The workers that did not throw drained every other index.
  EXPECT_EQ(ran.load(), 63);
}

TEST(TicketPoolTest, BlocksAreFixedByTheRangeAndTheBlockSize) {
  std::mutex mu;
  std::vector<std::pair<int64_t, int64_t>> blocks;
  RunBlocks(10, 4, [&](int64_t begin, int64_t end) {
    std::lock_guard<std::mutex> lock(mu);
    blocks.emplace_back(begin, end);
  });
  std::sort(blocks.begin(), blocks.end());
  EXPECT_EQ(blocks, (std::vector<std::pair<int64_t, int64_t>>{
                        {0, 4}, {4, 8}, {8, 10}}));
}

}  // namespace
}  // namespace emp
