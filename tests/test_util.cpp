#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "util/bounded_queue.hpp"
#include "util/cli.hpp"
#include "util/memory.hpp"
#include "util/table_printer.hpp"
#include "util/timer.hpp"

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
    std::vector<int> batch{2};
    queue.push_batch_for(batch, std::chrono::seconds(30));
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

TEST(BoundedQueue, PushBatchPopBatchFifo) {
  BoundedQueue<int> queue(8);
  std::vector<int> batch{1, 2, 3, 4, 5};
  EXPECT_TRUE(queue.push_batch(batch));
  EXPECT_TRUE(batch.empty());  // consumed on success
  std::vector<int> out;
  EXPECT_EQ(queue.pop_batch(out, 3), 3u);
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(queue.pop_batch(out, 10), 2u);  // partial take: only 2 remain
  EXPECT_EQ(out, (std::vector<int>{4, 5}));
}

TEST(BoundedQueue, PushBatchRejectsOversizedBatch) {
  BoundedQueue<int> queue(4);
  std::vector<int> batch{1, 2, 3, 4, 5};
  EXPECT_THROW(queue.push_batch(batch), std::length_error);
  EXPECT_EQ(batch.size(), 5u);  // intact after the throw
  EXPECT_THROW(queue.push_batch_for(batch, std::chrono::milliseconds(1)),
               std::length_error);
}

TEST(BoundedQueue, PushBatchForTimesOutAndKeepsBatch) {
  BoundedQueue<int> queue(4);
  std::vector<int> filler{1, 2, 3};
  ASSERT_TRUE(queue.push_batch(filler));
  std::vector<int> batch{4, 5};  // needs 2 free slots, only 1 available
  EXPECT_FALSE(queue.push_batch_for(batch, std::chrono::milliseconds(10)));
  EXPECT_EQ(batch, (std::vector<int>{4, 5}));  // intact on timeout
  EXPECT_EQ(queue.pop(), 1);
  EXPECT_TRUE(queue.push_batch_for(batch, std::chrono::milliseconds(10)));
  EXPECT_TRUE(batch.empty());
}

TEST(BoundedQueue, PushBatchWaitsForWholeBatchRoom) {
  BoundedQueue<int> queue(4);
  std::vector<int> filler{1, 2, 3};
  ASSERT_TRUE(queue.push_batch(filler));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    std::vector<int> batch{4, 5, 6};
    queue.push_batch(batch);
    pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());  // 1 free slot is not room for 3
  EXPECT_EQ(queue.pop(), 1);
  EXPECT_EQ(queue.pop(), 2);
  producer.join();
  EXPECT_TRUE(pushed.load());
  std::vector<int> out;
  EXPECT_EQ(queue.pop_batch(out, 8), 4u);
  EXPECT_EQ(out, (std::vector<int>{3, 4, 5, 6}));
}

TEST(BoundedQueue, PopBatchDrainsPartialBatchAtClose) {
  BoundedQueue<int> queue(8);
  std::vector<int> batch{1, 2};
  ASSERT_TRUE(queue.push_batch(batch));
  queue.close();
  std::vector<int> out;
  EXPECT_EQ(queue.pop_batch(out, 64), 2u);  // partial batch flushed at EOS
  EXPECT_EQ(out, (std::vector<int>{1, 2}));
  EXPECT_EQ(queue.pop_batch(out, 64), 0u);  // closed and drained
  EXPECT_TRUE(out.empty());
  std::vector<int> late{3};
  EXPECT_FALSE(queue.push_batch(late));
  EXPECT_EQ(late, (std::vector<int>{3}));  // intact after close
}

TEST(BoundedQueue, PopBatchReturnsZeroOnAbortAndDropsItems) {
  BoundedQueue<int> queue(8);
  std::vector<int> batch{1, 2, 3};
  ASSERT_TRUE(queue.push_batch(batch));
  std::atomic<std::size_t> got{999};
  std::thread consumer([&] {
    std::vector<int> out;
    // Drain, then block on the empty queue until abort wakes us.
    while (queue.pop_batch(out, 2) > 0) {
    }
    got = 0;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.abort();
  consumer.join();
  EXPECT_EQ(got.load(), 0u);
  std::vector<int> out;
  EXPECT_EQ(queue.pop_batch(out, 4), 0u);
}

// The contended stress test for the batched wakeup protocol: mixed
// single-item and batched producers against mixed consumers, with exact item
// accounting. A lost wakeup (the bug class the baton-passing protocol
// prevents) shows up as a hang; a double-delivery or drop breaks the sum.
TEST(BoundedQueue, BatchedContendedStressExactAccounting) {
  BoundedQueue<int> queue(32);
  constexpr int kPerProducer = 4000;
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  std::atomic<long> sum{0};
  std::atomic<int> count{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      // Deterministic per-producer mix of batch sizes 1..13, including the
      // single-item push path so both protocols interleave.
      std::vector<int> batch;
      int next = p * kPerProducer;
      const int end = next + kPerProducer;
      while (next < end) {
        const int batch_size = 1 + (next * 7 + p) % 13;
        if (batch_size == 1) {
          ASSERT_TRUE(queue.push(next++));
          continue;
        }
        batch.clear();
        for (int i = 0; i < batch_size && next < end; ++i) batch.push_back(next++);
        // Exercise the timed path occasionally; retry until accepted.
        if (batch_size % 3 == 0) {
          while (!queue.push_batch_for(batch, std::chrono::milliseconds(5))) {
            ASSERT_FALSE(queue.closed());
          }
        } else {
          ASSERT_TRUE(queue.push_batch(batch));
        }
      }
    });
  }
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&, c] {
      if (c % 2 == 0) {
        std::vector<int> out;
        while (queue.pop_batch(out, 1 + c * 5) > 0) {
          for (int item : out) sum += item;
          count += static_cast<int>(out.size());
        }
      } else {
        while (auto item = queue.pop()) {
          sum += *item;
          ++count;
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  queue.close();
  for (auto& t : consumers) t.join();
  const long total = static_cast<long>(kProducers) * kPerProducer;
  EXPECT_EQ(count.load(), total);
  EXPECT_EQ(sum.load(), total * (total - 1) / 2);
}

TEST(BoundedQueue, AbortRacesInFlightPushBatch) {
  // abort() must wake a producer blocked mid-push_batch (queue full, batch
  // does not fit) and make it return false with the batch intact — the
  // watchdog teardown path when the producer is wedged on a full queue.
  BoundedQueue<int> queue(4);
  std::vector<int> fill = {1, 2, 3, 4};
  ASSERT_TRUE(queue.push_batch(fill));
  std::atomic<bool> returned{false};
  bool accepted = true;
  std::vector<int> batch = {5, 6, 7};
  std::thread producer([&] {
    accepted = queue.push_batch(batch);  // blocks: only 0 of 3 slots free
    returned = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(returned.load());
  queue.abort();
  producer.join();
  EXPECT_TRUE(returned.load());
  EXPECT_FALSE(accepted);
  EXPECT_EQ(batch.size(), 3u);  // batch left intact for the caller to dispose
  EXPECT_EQ(queue.size(), 0u);  // pending items dropped
}

TEST(BoundedQueue, AbortRacesInFlightPopBatch) {
  // abort() must wake a consumer blocked in pop_batch on an empty queue and
  // make it return 0 (the "no item will ever arrive" signal).
  BoundedQueue<int> queue(4);
  std::atomic<bool> returned{false};
  std::size_t taken = 99;
  std::thread consumer([&] {
    std::vector<int> out;
    taken = queue.pop_batch(out, 8);
    returned = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(returned.load());
  queue.abort();
  consumer.join();
  EXPECT_TRUE(returned.load());
  EXPECT_EQ(taken, 0u);
  EXPECT_TRUE(queue.finished());
}

TEST(BoundedQueue, AbortStormDuringBatchedTraffic) {
  // Concurrent producers + consumers with an abort landing mid-traffic:
  // nothing deadlocks, every thread returns promptly, and post-abort the
  // queue is terminally dead. Items may be lost (abort drops them) — the
  // assertion is liveness + terminal state, not accounting.
  BoundedQueue<int> queue(8);
  std::vector<std::thread> threads;
  std::atomic<int> running{0};
  for (int p = 0; p < 2; ++p) {
    threads.emplace_back([&, p] {
      ++running;
      std::vector<int> batch;
      int next = p * 100000;
      for (;;) {
        batch.clear();
        for (int i = 0; i < 5; ++i) batch.push_back(next++);
        if (!queue.push_batch(batch)) return;  // closed or aborted
      }
    });
  }
  for (int c = 0; c < 2; ++c) {
    threads.emplace_back([&] {
      ++running;
      std::vector<int> out;
      while (queue.pop_batch(out, 3) > 0) {
      }
    });
  }
  while (running.load() < 4) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  queue.abort();
  for (auto& t : threads) t.join();  // liveness: every waiter woke up
  EXPECT_TRUE(queue.aborted());
  EXPECT_TRUE(queue.finished());
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_FALSE(queue.push(1));
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
  // "--batch-size=abc" silently parsed as 0 and "--k=4x" as 4. Malformed
  // values must now fail fast with CliError naming the flag.
  const char* argv[] = {"prog", "--batch-size=abc", "--k=4x", "--lambda=",
                        "--slack=0.5oops", "--shards=0x10"};
  CliArgs args(6, const_cast<char**>(argv));
  EXPECT_THROW(args.get_int("batch-size", 0), CliError);
  EXPECT_THROW(args.get_int("k", 0), CliError);
  EXPECT_THROW(args.get_double("lambda", 0.5), CliError);
  EXPECT_THROW(args.get_double("slack", 1.1), CliError);
  EXPECT_THROW(args.get_int("shards", 0), CliError);
  try {
    args.get_int("batch-size", 0);
    FAIL() << "expected CliError";
  } catch (const CliError& e) {
    EXPECT_NE(std::string(e.what()).find("batch-size"), std::string::npos);
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
