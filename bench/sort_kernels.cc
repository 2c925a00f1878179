// Microbenchmarks for the radix sort engine (util/sort.h) against the
// comparison-sort reference kept in the library as SortValuesNaive /
// SortPairsNaive — the SelectWeightedPositionsNaive pattern: old and new
// kernels run side by side here and differentially in tests/sort_test.cc.
//
// BM_BufferSortSteadyState additionally asserts the PR's zero-allocation
// claim: a global operator new hook counts heap allocations around each
// steady-state fill + MarkFull (which runs SortValues through the
// thread-local scratch) and aborts the binary if any occur. The hook is
// compiled out under sanitizers and MRLQUANT_AUDIT builds, whose
// instrumentation allocates behind our back.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include "bench_reporter.h"
#include "core/buffer.h"
#include "util/random.h"
#include "util/sort.h"
#include "util/types.h"

#if defined(MRLQUANT_AUDIT) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
#define MRL_BENCH_COUNT_ALLOCS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define MRL_BENCH_COUNT_ALLOCS 0
#else
#define MRL_BENCH_COUNT_ALLOCS 1
#endif
#else
#define MRL_BENCH_COUNT_ALLOCS 1
#endif

#if MRL_BENCH_COUNT_ALLOCS

// GCC cannot see that the replaced operator new/delete pair below is
// internally consistent (malloc in new, free in delete) and reports a
// mismatched-new-delete false positive at every call site in this TU.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t n) { return ::operator new(n); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#endif  // MRL_BENCH_COUNT_ALLOCS

namespace mrl {
namespace {

std::uint64_t AllocCount() {
#if MRL_BENCH_COUNT_ALLOCS
  return g_alloc_count.load(std::memory_order_relaxed);
#else
  return 0;
#endif
}

void CheckNoAllocs(std::uint64_t before, const char* where) {
#if MRL_BENCH_COUNT_ALLOCS
  const std::uint64_t after = AllocCount();
  if (after != before) {
    std::fprintf(stderr,
                 "FATAL: %s performed %llu heap allocation(s) in steady "
                 "state; the scratch-arena contract is broken\n",
                 where, static_cast<unsigned long long>(after - before));
    std::abort();
  }
#else
  (void)before;
  (void)where;
#endif
}

std::vector<Value> MakeUniform(std::size_t n) {
  Random rng(0x5bd1e995U + n);
  std::vector<Value> v(n);
  for (Value& x : v) x = rng.UniformDouble() * 2.0 - 1.0;
  return v;
}

void BM_StdSortValues(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::vector<Value> pristine = MakeUniform(n);
  std::vector<Value> work(n);
  for (auto _ : state) {
    std::memcpy(work.data(), pristine.data(), n * sizeof(Value));
    SortValuesNaive(work.data(), n);
    benchmark::DoNotOptimize(work.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
// The grid deliberately includes non-lane-multiple and cutoff-straddling
// sizes: 3/17/255 take the sub-cutoff comparison fallback, 257 is the
// smallest radix path (with a 1-element SIMD tail), and 4097 straddles the
// AVX2 partial-histogram cutoff — so the tail and dispatch overheads are
// measured, not just the 4-lane-aligned steady state.
BENCHMARK(BM_StdSortValues)
    ->Arg(3)
    ->Arg(17)
    ->Arg(255)
    ->Arg(257)
    ->Arg(1024)
    ->Arg(4097)
    ->Arg(16384)
    ->Arg(65536)
    ->Arg(262144);

void BM_RadixSortValues(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::vector<Value> pristine = MakeUniform(n);
  std::vector<Value> work(n);
  SortScratch scratch;
  for (auto _ : state) {
    std::memcpy(work.data(), pristine.data(), n * sizeof(Value));
    SortValues(work.data(), n, &scratch);
    benchmark::DoNotOptimize(work.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_RadixSortValues)
    ->Arg(3)
    ->Arg(17)
    ->Arg(255)
    ->Arg(257)
    ->Arg(1024)
    ->Arg(4097)
    ->Arg(16384)
    ->Arg(65536)
    ->Arg(262144);

// Presorted input exercises the per-pass skip detection: passes whose byte
// position carries no information cost one histogram probe each.
void BM_RadixSortValuesPresorted(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<Value> pristine = MakeUniform(n);
  SortValuesNaive(pristine.data(), n);
  std::vector<Value> work(n);
  SortScratch scratch;
  for (auto _ : state) {
    std::memcpy(work.data(), pristine.data(), n * sizeof(Value));
    SortValues(work.data(), n, &scratch);
    benchmark::DoNotOptimize(work.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_RadixSortValuesPresorted)->Arg(65536);

// All-equal input: every pass's histogram collapses to one bucket, so the
// engine reduces to the 8 skip probes plus the key transform round trip.
void BM_RadixSortValuesAllEqual(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<Value> work(n, 3.25);
  SortScratch scratch;
  for (auto _ : state) {
    SortValues(work.data(), n, &scratch);
    benchmark::DoNotOptimize(work.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_RadixSortValuesAllEqual)->Arg(65536);

std::vector<KeyedPayload> MakeUniformPairs(std::size_t n) {
  Random rng(0xc2b2ae35U + n);
  std::vector<KeyedPayload> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = {rng.UniformDouble() * 2.0 - 1.0, static_cast<std::uint64_t>(i)};
  }
  return v;
}

void BM_StdSortPairs(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::vector<KeyedPayload> pristine = MakeUniformPairs(n);
  std::vector<KeyedPayload> work(n);
  for (auto _ : state) {
    std::copy(pristine.begin(), pristine.end(), work.begin());
    SortPairsNaive(work.data(), n);
    benchmark::DoNotOptimize(work.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
// The pairs grid straddles the pairs cutoff (kPairsRadixCutoff in
// util/sort.cc) so the crossover it was tuned at stays visible.
BENCHMARK(BM_StdSortPairs)
    ->Arg(257)
    ->Arg(1024)
    ->Arg(2048)
    ->Arg(3072)
    ->Arg(4097)
    ->Arg(65536);

void BM_RadixSortPairs(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::vector<KeyedPayload> pristine = MakeUniformPairs(n);
  std::vector<KeyedPayload> work(n);
  SortScratch scratch;
  for (auto _ : state) {
    std::copy(pristine.begin(), pristine.end(), work.begin());
    SortPairs(work.data(), n, &scratch);
    benchmark::DoNotOptimize(work.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_RadixSortPairs)
    ->Arg(257)
    ->Arg(1024)
    ->Arg(2048)
    ->Arg(3072)
    ->Arg(4097)
    ->Arg(65536);

// The framework's actual hot call site: refill a Buffer to capacity and
// promote it with MarkFull, whose sort now runs through the engine's
// thread-local scratch. After one warm-up round (vector capacities, the
// scratch arena) the whole cycle must be allocation free.
void BM_BufferSortSteadyState(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  const std::vector<Value> pristine = MakeUniform(k);
  Buffer buffer(k);

  const auto one_round = [&] {
    buffer.Clear();
    buffer.StartFill();
    buffer.AppendSpan(pristine.data(), k);
    buffer.MarkFull(/*weight=*/1, /*level=*/0);
  };
  one_round();  // warm every capacity before asserting zero allocations

  for (auto _ : state) {
    buffer.Clear();
    buffer.StartFill();
    buffer.AppendSpan(pristine.data(), k);
    const std::uint64_t before = AllocCount();
    buffer.MarkFull(/*weight=*/1, /*level=*/0);
    CheckNoAllocs(before, "Buffer::MarkFull");
    benchmark::DoNotOptimize(buffer.values().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(k));
}
BENCHMARK(BM_BufferSortSteadyState)->Arg(1024)->Arg(16384)->Arg(65536);

}  // namespace
}  // namespace mrl

int main(int argc, char** argv) {
  return mrl::bench::RunBenchmarksWithReporter(argc, argv, "sort_kernels");
}
