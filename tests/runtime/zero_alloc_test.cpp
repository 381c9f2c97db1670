// Steady-state zero-allocation proof for the pooled wire ingest path.
//
// The tentpole claim of the zero-allocation ingest work is structural:
// once every capacity is minted (pool slots, input batches, shard
// messages, flow-cache tables), a datagram travels
//
//   pooled slot → input ring → fused decode→route → shard ring → collect
//
// without a single heap allocation. This test makes the claim executable:
// a counting global operator new observes the whole process, the engine is
// warmed until every recycle ring is primed, and then a measured window of
// pushes — slots filled by the caller and by the engine's copying
// push_wire(span) entry alike — must leave the allocation counter exactly
// where it was. A fifth of the corpus is malformed (truncations, an
// over-declared sample count, random garbage), so the window also walks
// the decode-error path and the route rollback: hostile input must cost
// no allocation and no unwind either.
//
// The counting overrides are compiled only in SCRUBBER_CHECKED builds and
// never under sanitizers (ASan/TSan/MSan interpose their own allocator and
// must keep it); elsewhere the test compiles to a skip.

#include "runtime/engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <span>
#include <thread>
#include <vector>

#include "net/sflow.hpp"
#include "util/rng.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SCRUBBER_ZEROALLOC_ACTIVE 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define SCRUBBER_ZEROALLOC_ACTIVE 0
#endif
#endif
#if !defined(SCRUBBER_ZEROALLOC_ACTIVE)
#if defined(SCRUBBER_CHECKED)
#define SCRUBBER_ZEROALLOC_ACTIVE 1
#else
#define SCRUBBER_ZEROALLOC_ACTIVE 0
#endif
#endif

#if SCRUBBER_ZEROALLOC_ACTIVE

namespace {
/// Process-wide allocation counter; relaxed is enough — the test reads it
/// only across quiesced boundaries.
std::atomic<std::uint64_t> g_alloc_count{0};

void* counted_alloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size != 0 ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  // aligned_alloc wants size to be a multiple of the alignment.
  const std::size_t padded = (size + align - 1) / align * align;
  void* p = std::aligned_alloc(align, padded != 0 ? padded : align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#endif  // SCRUBBER_ZEROALLOC_ACTIVE

namespace scrubber::runtime {
namespace {

#if SCRUBBER_ZEROALLOC_ACTIVE

/// A fixed corpus over a small, recurring set of flow keys — so the flow
/// cache stops growing after the first round and every later round is
/// pure steady state. After every fourth well-formed datagram comes a
/// malformed one, cycling through a truncated copy, a copy that declares
/// more samples than it carries (its real samples are routed before the
/// walk starves, so the rollback unwinds them) and random garbage.
struct Corpus {
  std::vector<std::vector<std::uint8_t>> wire;
  std::size_t malformed = 0;
};

Corpus make_corpus() {
  Corpus corpus;
  util::Rng rng(0x2E40A11C);
  for (std::uint32_t d = 0; d < 64; ++d) {
    net::SflowDatagram datagram;
    datagram.agent = net::Ipv4Address(0x0AFF0001);
    datagram.sub_agent_id = d % 4;
    datagram.sequence = d;
    datagram.uptime_ms = 90'000;  // all in export minute 1: no bin churn
    for (std::uint32_t k = 0; k < 4; ++k) {
      net::SflowFlowSample sample;
      sample.sequence = d * 4 + k;
      sample.sampling_rate = 1;
      sample.input_port = 5;
      sample.packet.src_ip = net::Ipv4Address(0x80000000 + (d % 8));
      sample.packet.dst_ip = net::Ipv4Address(0xC0A80000 + ((d * 4 + k) % 16));
      sample.packet.src_port = 123;
      sample.packet.dst_port = 44000;
      sample.packet.protocol = 17;
      sample.packet.length = 468;
      sample.packet.ingress_member = 5;
      datagram.samples.push_back(sample);
    }
    std::vector<std::uint8_t> wire = datagram.encode();
    corpus.wire.push_back(wire);
    if (d % 4 != 3) continue;
    switch ((d / 4) % 3) {
      case 0:  // any strict prefix starves the walk
        wire.resize(1 + rng.below(wire.size() - 1));
        break;
      case 1:  // declared sample count (bytes 24..27) of 7, four encoded
        wire[24] = 0;
        wire[25] = 0;
        wire[26] = 0;
        wire[27] = 7;
        break;
      default:
        wire.resize(1 + rng.below(512));
        for (auto& byte : wire) byte = static_cast<std::uint8_t>(rng.below(256));
        break;
    }
    corpus.wire.push_back(std::move(wire));
    ++corpus.malformed;
  }
  return corpus;
}

/// Pushes one full corpus round through pooled slots — filled here, or by
/// the engine's copying push_wire(span) entry when `copy` is set —
/// spinning (not sleeping, not allocating) when the pool is momentarily
/// dry.
void push_round(Engine& engine, WireBufferPool& pool,
                const std::vector<std::vector<std::uint8_t>>& corpus,
                bool copy) {
  for (const std::vector<std::uint8_t>& wire : corpus) {
    if (copy) {
      // On a dry pool push_wire(span) hands its partial batch to the
      // decode worker; batch boundaries would then stop falling on round
      // boundaries and quiesce() would wait on slots parked in the
      // engine's pending batch. So wait for a free slot first.
      while (pool.in_use() >= pool.slots()) {
        std::this_thread::yield();
      }
      engine.push_wire(std::span<const std::uint8_t>(wire));
      continue;
    }
    WireSlot slot;
    while (!(slot = pool.try_acquire())) {
      std::this_thread::yield();  // decode is draining; bounded wait
    }
    std::memcpy(slot.data(), wire.data(), wire.size());
    slot.set_size(wire.size());
    engine.push_wire(std::move(slot));
  }
}

/// Waits until every pooled slot has been recycled (the decode worker has
/// walked and released every in-flight datagram), then a grace period for
/// the shard workers to drain their rings. Needs the engine's pending
/// batch to be empty: each round must end on a batch boundary.
void quiesce(const WireBufferPool& pool) {
  while (pool.in_use() != 0) {
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
}

#endif  // SCRUBBER_ZEROALLOC_ACTIVE

TEST(ZeroAlloc, SteadyStatePooledIngestDoesNotAllocate) {
#if !SCRUBBER_ZEROALLOC_ACTIVE
  GTEST_SKIP() << "counting allocator compiled out (needs SCRUBBER_CHECKED, "
                  "no sanitizer)";
#else
  EngineConfig config;
  config.shards = 2;
  config.queue_capacity = 256;
  config.backpressure = Backpressure::kBlock;
  config.batch_records = 8;
  config.wire_pool_slots = 32;
  config.wire_slot_bytes = 2048;
  config.collector.sampling_rate = 1;

  std::uint64_t sunk_flows = 0;
  Engine engine(config,
                [&](std::uint32_t, std::span<const net::FlowRecord> flows) {
                  sunk_flows += flows.size();
                });
  WireBufferPool* pool = engine.wire_pool();
  ASSERT_NE(pool, nullptr);

  const Corpus corpus = make_corpus();
  ASSERT_EQ(corpus.wire.size() % config.batch_records, 0u);

  // Warm-up: mint every capacity — pool slots circulate, the batch and
  // shard recycle rings fill with their steady-state fleets, the flow
  // cache reaches its final table size for this key set.
  for (int round = 0; round < 8; ++round) {
    push_round(engine, *pool, corpus.wire, round % 2 == 1);
  }
  quiesce(*pool);

  // Measured window. No gtest assertions inside (they may allocate);
  // verdicts are collected and checked after.
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int round = 0; round < 4; ++round) {
    push_round(engine, *pool, corpus.wire, round % 2 == 1);
  }
  quiesce(*pool);
  const std::uint64_t after = g_alloc_count.load(std::memory_order_relaxed);

  EXPECT_EQ(after - before, 0u)
      << "steady-state pooled wire→shard ingest allocated "
      << (after - before) << " times";

  engine.finish();
  const EngineSnapshot snapshot = engine.stats();
  // 8 warm + 4 measured rounds.
  EXPECT_EQ(snapshot.decode_errors, corpus.malformed * 12);
  EXPECT_EQ(snapshot.datagrams, (corpus.wire.size() - corpus.malformed) * 12);
  EXPECT_GT(snapshot.pool_highwater, 0u);
  EXPECT_GT(sunk_flows, 0u);
#endif
}

}  // namespace
}  // namespace scrubber::runtime
