#include "common/union_find.h"

#include <algorithm>

namespace kcc {

UnionFind::UnionFind(std::size_t n) { reset(n); }

void UnionFind::reset(std::size_t n) {
  parent_.resize(n);
  size_.assign(n, 1);
  for (std::size_t i = 0; i < n; ++i) parent_[i] = static_cast<std::uint32_t>(i);
  set_count_ = n;
}

std::vector<std::vector<std::uint32_t>> UnionFind::groups() {
  std::vector<std::vector<std::uint32_t>> by_root(parent_.size());
  for (std::uint32_t i = 0; i < parent_.size(); ++i)
    by_root[find(i)].push_back(i);
  std::vector<std::vector<std::uint32_t>> out;
  out.reserve(set_count_);
  for (auto& g : by_root) {
    if (!g.empty()) out.push_back(std::move(g));
  }
  // by_root iteration order already yields groups keyed by root id; re-order
  // by smallest member for a deterministic, representation-independent order.
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.front() < b.front(); });
  return out;
}

}  // namespace kcc
