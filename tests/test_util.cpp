#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "util/bounded_queue.hpp"
#include "util/cli.hpp"
#include "util/memory.hpp"
#include "util/table_printer.hpp"
#include "util/timer.hpp"
#include "util/zeroed_array.hpp"

namespace spnl {
namespace {

TEST(Timer, MeasuresElapsedTime) {
  Timer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(timer.millis(), 15.0);
  timer.restart();
  EXPECT_LT(timer.millis(), 15.0);
}

TEST(AccumTimer, AccumulatesAcrossIntervals) {
  AccumTimer timer;
  EXPECT_EQ(timer.seconds(), 0.0);
  timer.resume();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  timer.pause();
  const double first = timer.seconds();
  EXPECT_GT(first, 0.0);
  timer.resume();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  timer.pause();
  EXPECT_GT(timer.seconds(), first);
}

TEST(AccumTimer, DoubleResumePauseIsIdempotent) {
  AccumTimer timer;
  timer.resume();
  timer.resume();
  timer.pause();
  timer.pause();
  EXPECT_GE(timer.seconds(), 0.0);
}

TEST(Memory, RssReadable) {
  EXPECT_GT(current_rss_bytes(), 0u);
  EXPECT_GE(peak_rss_bytes(), current_rss_bytes() / 2);
}

TEST(Memory, FormatBytes) {
  EXPECT_EQ(format_bytes(500), "500B");
  EXPECT_EQ(format_bytes(1536), "1.50KB");
  EXPECT_EQ(format_bytes(3 * 1024 * 1024), "3.00MB");
}

TEST(Memory, VectorBytesTracksCapacity) {
  std::vector<int> v;
  v.reserve(100);
  EXPECT_EQ(vector_bytes(v), 100 * sizeof(int));
}

// Sizes on both sides of the 2 MiB line between heap and mapped storage.
constexpr std::size_t kZeroedSizes[] = {
    1, 4096, kHugePageBytes - 4, kHugePageBytes, kHugePageBytes + 4, 5 * kHugePageBytes + 12};

TEST(ZeroedArray, MemoryIsZeroAndLargeRequestsAre2MiBAligned) {
  for (const std::size_t bytes : kZeroedSizes) {
    // Leave dirty memory behind in the heap first: a heap allocation of the
    // same size that skipped zeroing would likely be handed it back.
    {
      std::vector<std::uint8_t> dirty(bytes, 0xAB);
      ASSERT_EQ(dirty.back(), 0xAB);
    }
    const ZeroedArray<std::uint8_t> array(bytes);
    ASSERT_EQ(array.size(), bytes);
    EXPECT_EQ(array.bytes(), bytes);
    EXPECT_TRUE(std::all_of(array.data(), array.data() + bytes,
                            [](std::uint8_t b) { return b == 0; }))
        << bytes << " bytes";
    if (bytes >= kHugePageBytes) {
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(array.data()) % kHugePageBytes, 0u)
          << bytes << " bytes";
    }
  }
}

TEST(ZeroedArray, WritableToTheLastElementAndMovable) {
  for (const std::size_t bytes : kZeroedSizes) {
    const std::size_t n = bytes / sizeof(std::uint32_t) + 2;
    ZeroedArray<std::uint32_t> array(n);
    std::memset(array.data(), 0xFF, array.bytes());
    array[n - 1] = 7;
    ZeroedArray<std::uint32_t> moved(std::move(array));
    EXPECT_EQ(array.data(), nullptr);
    EXPECT_EQ(array.size(), 0u);
    ASSERT_EQ(moved.size(), n);
    EXPECT_EQ(moved[n - 1], 7u);
    EXPECT_EQ(moved[0], 0xFFFFFFFFu);
    moved = ZeroedArray<std::uint32_t>(3);
    EXPECT_EQ(moved.span().size(), 3u);
    EXPECT_EQ(moved[2], 0u);
  }
  const ZeroedArray<std::uint64_t> empty;
  EXPECT_EQ(empty.data(), nullptr);
  EXPECT_TRUE(empty.span().empty());
  EXPECT_EQ(ZeroedArray<std::uint64_t>(0).data(), nullptr);
}

TEST(ZeroedArray, AdviceOnAVectorKeepsItsContents) {
  std::vector<std::uint32_t> v;
  v.reserve(kHugePageBytes);  // 8 MiB of uint32
  advise_huge_pages(v);
  v.assign(kHugePageBytes, 5);
  EXPECT_EQ(v.front(), 5u);
  EXPECT_EQ(v.back(), 5u);
  std::vector<std::uint32_t> small(10, 1);
  advise_huge_pages(small);  // below 2 MiB: nothing to advise
  EXPECT_EQ(small[9], 1u);
}

TEST(BoundedQueue, PushPopFifo) {
  BoundedQueue<int> queue(4);
  queue.push(1);
  queue.push(2);
  EXPECT_EQ(queue.pop(), 1);
  EXPECT_EQ(queue.pop(), 2);
}

TEST(BoundedQueue, TryPopEmptyReturnsNullopt) {
  BoundedQueue<int> queue(4);
  EXPECT_FALSE(queue.try_pop().has_value());
}

TEST(BoundedQueue, CloseDrainsThenEnds) {
  BoundedQueue<int> queue(4);
  queue.push(7);
  queue.close();
  EXPECT_EQ(queue.pop(), 7);
  EXPECT_FALSE(queue.pop().has_value());
  EXPECT_FALSE(queue.push(9));
}

TEST(BoundedQueue, BlocksWhenFullUntilConsumed) {
  BoundedQueue<int> queue(1);
  queue.push(1);
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    queue.push(2);
    pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());
  EXPECT_EQ(queue.pop(), 1);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(queue.pop(), 2);
}

TEST(BoundedQueue, AbortDiscardsItemsAndWakesEverybody) {
  BoundedQueue<int> queue(1);
  queue.push(1);  // full: blocked producers and a pending item
  std::atomic<bool> push_returned{false};
  std::atomic<bool> pop_returned{false};
  std::thread producer([&] {
    queue.push(2);  // blocks on the full queue until the abort
    push_returned = true;
  });
  std::thread consumer([&] {
    // Drain the one item so the queue is empty, then block.
    EXPECT_EQ(queue.pop(), 1);
    while (queue.pop().has_value()) {
    }
    pop_returned = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.abort();
  producer.join();
  consumer.join();
  EXPECT_TRUE(push_returned.load());
  EXPECT_TRUE(pop_returned.load());
  EXPECT_TRUE(queue.aborted());
  EXPECT_TRUE(queue.finished());
  // Post-abort: pushes fail, pops are empty, pending items were dropped.
  EXPECT_FALSE(queue.push(9));
  EXPECT_FALSE(queue.pop().has_value());
  EXPECT_EQ(queue.size(), 0u);
}

TEST(BoundedQueue, AbortUnlikeCloseDropsUndelivered) {
  BoundedQueue<int> closed(4);
  closed.push(1);
  closed.close();
  EXPECT_FALSE(closed.finished());  // still an item to drain
  EXPECT_EQ(closed.pop(), 1);
  EXPECT_TRUE(closed.finished());

  BoundedQueue<int> aborted(4);
  aborted.push(1);
  aborted.abort();
  EXPECT_TRUE(aborted.finished());  // item dropped immediately
  EXPECT_FALSE(aborted.pop().has_value());
}

TEST(BoundedQueue, ManyProducersManyConsumers) {
  BoundedQueue<int> queue(16);
  constexpr int kPerProducer = 1000;
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  std::atomic<long> sum{0};
  std::atomic<int> count{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) queue.push(p * kPerProducer + i);
    });
  }
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      while (auto item = queue.pop()) {
        sum += *item;
        ++count;
      }
    });
  }
  for (auto& t : threads) t.join();
  queue.close();
  for (auto& t : consumers) t.join();
  const int total = kProducers * kPerProducer;
  EXPECT_EQ(count.load(), total);
  EXPECT_EQ(sum.load(), static_cast<long>(total) * (total - 1) / 2);
}

TEST(BoundedQueue, DoubleCloseIsSafeNoOp) {
  BoundedQueue<int> queue(4);
  queue.push(1);
  queue.close();
  queue.close();  // second close must not wedge, throw, or drop the item
  EXPECT_TRUE(queue.closed());
  EXPECT_EQ(queue.pop(), 1);
  EXPECT_FALSE(queue.pop().has_value());
}

TEST(BoundedQueue, AbortAfterCloseAndCloseAfterAbortAreSafe) {
  // close() promises a drain; a later abort() revokes it (pipeline died
  // while draining). The reverse order must also hold terminally.
  BoundedQueue<int> queue(4);
  queue.push(1);
  queue.close();
  queue.abort();  // abort-after-close: undelivered item is now dropped
  EXPECT_TRUE(queue.closed());
  EXPECT_TRUE(queue.aborted());
  EXPECT_FALSE(queue.pop().has_value());
  EXPECT_EQ(queue.size(), 0u);

  BoundedQueue<int> other(4);
  other.abort();
  other.close();  // close-after-abort: stays dead, no revival
  other.abort();  // and double-abort is a no-op too
  EXPECT_TRUE(other.aborted());
  EXPECT_TRUE(other.finished());
  EXPECT_FALSE(other.push(2));
  EXPECT_FALSE(other.pop().has_value());
}

TEST(TablePrinter, FormatsAlignedTable) {
  TablePrinter table({"a", "bb"});
  table.add_row({"1", "2"});
  table.add_row({"333", "4"});
  const std::string out = table.to_string();
  EXPECT_NE(out.find("| a   | bb |"), std::string::npos);
  EXPECT_NE(out.find("| 333 | 4  |"), std::string::npos);
}

TEST(TablePrinter, RejectsWrongArity) {
  TablePrinter table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(TablePrinter({}), std::invalid_argument);
}

TEST(TablePrinter, NumericFormatters) {
  EXPECT_EQ(TablePrinter::fmt(1.23456, 2), "1.23");
  EXPECT_EQ(TablePrinter::fmt(std::size_t{42}), "42");
  EXPECT_EQ(TablePrinter::fmt(-3), "-3");
}

TEST(Cli, ParsesKeyValueForms) {
  // Note: a bare flag followed by a non-flag token ("--flag pos") reads the
  // token as the flag's value by design, so positionals come first.
  const char* argv[] = {"prog", "pos", "--k=8", "--name", "foo", "--flag"};
  CliArgs args(6, const_cast<char**>(argv));
  EXPECT_EQ(args.get_int("k", 0), 8);
  EXPECT_EQ(args.get("name", ""), "foo");
  EXPECT_TRUE(args.get_bool("flag", false));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "pos");
}

TEST(Cli, FallbacksApply) {
  const char* argv[] = {"prog"};
  CliArgs args(1, const_cast<char**>(argv));
  EXPECT_EQ(args.get_int("missing", 7), 7);
  EXPECT_EQ(args.get_double("missing", 0.5), 0.5);
  EXPECT_FALSE(args.has("missing"));
}

TEST(Cli, MalformedNumericsThrowTypedError) {
  // Regression: get_int/get_double used strtol/strtod with a null endptr, so
  // "--threads=abc" silently parsed as 0 and "--k=4x" as 4. Malformed
  // values must now fail fast with CliError naming the flag.
  const char* argv[] = {"prog", "--threads=abc", "--k=4x", "--lambda=",
                        "--slack=0.5oops", "--shards=0x10"};
  CliArgs args(6, const_cast<char**>(argv));
  EXPECT_THROW(args.get_int("threads", 0), CliError);
  EXPECT_THROW(args.get_int("k", 0), CliError);
  EXPECT_THROW(args.get_double("lambda", 0.5), CliError);
  EXPECT_THROW(args.get_double("slack", 1.1), CliError);
  EXPECT_THROW(args.get_int("shards", 0), CliError);
  try {
    args.get_int("threads", 0);
    FAIL() << "expected CliError";
  } catch (const CliError& e) {
    EXPECT_NE(std::string(e.what()).find("threads"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("abc"), std::string::npos);
  }
}

TEST(Cli, WellFormedNumericsStillParse) {
  const char* argv[] = {"prog", "--k=12", "--lambda=0.75", "--neg=-3"};
  CliArgs args(4, const_cast<char**>(argv));
  EXPECT_EQ(args.get_int("k", 0), 12);
  EXPECT_DOUBLE_EQ(args.get_double("lambda", 0.0), 0.75);
  EXPECT_EQ(args.get_int("neg", 0), -3);
}

}  // namespace
}  // namespace spnl
