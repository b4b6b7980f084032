// The check contract of kcc::require: a passing check builds no message and
// allocates nothing, a failing one throws kcc::Error carrying exactly the
// composed text. This binary replaces the global operator new with a
// counting one, so "allocates nothing" is measured, not assumed.
#include "common/error.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>

#include "common/rng.h"
#include "common/union_find.h"
#include "io/edge_list.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace kcc {
namespace {

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

TEST(Require, ComposedMessageIsNotBuiltWhenTheCheckPasses) {
  int calls = 0;
  volatile bool ok = true;
  for (int i = 0; i < 10; ++i) {
    require(ok, [&] {
      ++calls;
      return "never built " + std::to_string(i);
    });
  }
  EXPECT_EQ(calls, 0);
}

TEST(Require, ComposedMessageIsBuiltOnceOnFailure) {
  int calls = 0;
  volatile bool ok = false;
  const std::size_t line = 42;
  try {
    require(ok, [&] {
      ++calls;
      return "read_edge_list: expected 'u v' on line " +
             std::to_string(line) + ", got " + std::to_string(3) +
             " token(s)";
    });
    ADD_FAILURE() << "require(false, ...) did not throw";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(),
                 "read_edge_list: expected 'u v' on line 42, got 3 token(s)");
  }
  EXPECT_EQ(calls, 1);
}

TEST(Require, LiteralMessageIsTheErrorText) {
  volatile bool ok = false;
  try {
    require(ok, "UnionFind::find: element out of range");
    ADD_FAILURE() << "require(false, ...) did not throw";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "UnionFind::find: element out of range");
  }
}

TEST(Require, PassingChecksAllocateNothing) {
  volatile bool ok = true;
  const std::string token = "7018";
  const std::uint64_t before = allocations();
  for (int i = 0; i < 1000; ++i) {
    require(ok, "a literal message");
    require(ok, [&] { return "a composed message: '" + token + "'"; });
  }
  EXPECT_EQ(allocations() - before, 0u);
}

TEST(Require, UnionFindStepsAllocateNothing) {
  constexpr std::uint32_t kElements = 1000;
  UnionFind uf(kElements);
  Rng rng(14);
  std::uint64_t sink = 0;
  const std::uint64_t before = allocations();
  for (int i = 0; i < 50000; ++i) {
    const auto a = static_cast<std::uint32_t>(rng.next_below(kElements));
    const auto b = static_cast<std::uint32_t>(rng.next_below(kElements));
    sink += uf.unite(a, b);
    sink += uf.find(a);
  }
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_GT(sink, 0u);
  EXPECT_THROW(uf.find(kElements), Error);
}

TEST(Require, EdgeListLoadAllocatesPerBufferNotPerLine) {
  constexpr int kLines = 10000;
  std::string text = "# 10,000-line edge list\n";
  Rng rng(2011);
  for (int i = 0; i < kLines; ++i) {
    const std::uint64_t u = 1 + rng.next_below(3000);
    const std::uint64_t v = 1 + rng.next_below(3000);
    text += std::to_string(u) + ' ' + std::to_string(v) + " # link\n";
  }
  std::istringstream in(text);
  const std::uint64_t before = allocations();
  const LabeledGraph g = read_edge_list(in);
  const std::uint64_t used = allocations() - before;
  EXPECT_GT(g.graph.num_edges(), 9000u);
  EXPECT_LT(used, 100u) << "read_edge_list made " << used
                        << " allocations for " << kLines << " lines";
}

}  // namespace
}  // namespace kcc
