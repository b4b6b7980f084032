// Disjoint-set union with union-by-size and path halving.
//
// Clique percolation reduces community extraction at each k to connected
// components of a "cliques sharing >= k-1 nodes" relation; UnionFind is the
// engine behind that reduction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/error.h"

namespace kcc {

class UnionFind {
 public:
  /// Creates `n` singleton sets with ids [0, n).
  explicit UnionFind(std::size_t n = 0);

  /// Resets to `n` singleton sets.
  void reset(std::size_t n);

  /// Number of elements.
  std::size_t size() const { return parent_.size(); }

  /// Number of disjoint sets currently present.
  std::size_t set_count() const { return set_count_; }

  /// Representative of the set containing `x` (with path halving).
  std::uint32_t find(std::uint32_t x) {
    require(x < parent_.size(), "UnionFind::find: element out of range");
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];  // path halving
      x = parent_[x];
    }
    return x;
  }

  /// Merges the sets of `a` and `b`; returns true when they were distinct.
  bool unite(std::uint32_t a, std::uint32_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    if (size_[a] < size_[b]) std::swap(a, b);
    parent_[b] = a;
    size_[a] += size_[b];
    --set_count_;
    return true;
  }

  /// True when `a` and `b` are in the same set.
  bool connected(std::uint32_t a, std::uint32_t b) { return find(a) == find(b); }

  /// Size of the set containing `x`.
  std::size_t set_size(std::uint32_t x) { return size_[find(x)]; }

  /// Groups element ids by set. Each inner vector is sorted ascending;
  /// groups are ordered by their smallest element.
  std::vector<std::vector<std::uint32_t>> groups();

 private:
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint32_t> size_;
  std::size_t set_count_ = 0;
};

}  // namespace kcc
