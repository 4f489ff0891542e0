#pragma once
// Winner (tournament) tree over n slots: the DES event loop's run queue,
// keyed by thread clock, and park queue, keyed by iteration. Leaf n + t holds
// the packed key (value << key_bits) | t, key_bits = bit_width(n - 1), or
// kIdle while t is absent; inner node i < n holds min(tree[2i], tree[2i+1]).
// That is a full binary tree for any n, so the root is the least (value, t)
// pair, ties to the lowest t. An update is one branch-free leaf-to-root pass
// over at most bit_width(n - 1) levels.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

namespace mcopt::sim {

class WinnerTree {
 public:
  static constexpr std::uint64_t kIdle = ~std::uint64_t{0};

  void reset(unsigned n) {  ///< n >= 1 slots, all absent
    key_bits_ = static_cast<unsigned>(std::bit_width(n - 1));
    tree_.assign(2 * std::size_t{n}, kIdle);
  }
  /// Values must stay below this: larger ones overflow the packed key.
  [[nodiscard]] std::uint64_t value_limit() const { return kIdle >> key_bits_; }
  void set(unsigned t, std::uint64_t value) { put(t, (value << key_bits_) | t); }
  void erase(unsigned t) { put(t, kIdle); }
  [[nodiscard]] bool empty() const { return tree_[1] == kIdle; }
  [[nodiscard]] std::uint64_t top_value() const { return tree_[1] >> key_bits_; }
  [[nodiscard]] unsigned top_slot() const {
    return static_cast<unsigned>(tree_[1] & ~(kIdle << key_bits_));
  }

 private:
  void put(unsigned t, std::uint64_t key) {
    std::size_t i = tree_.size() / 2 + t;
    for (tree_[i] = key; i > 1; i >>= 1)
      tree_[i >> 1] = std::min(tree_[i], tree_[i ^ 1]);
  }

  unsigned key_bits_ = 0;
  std::vector<std::uint64_t> tree_;
};

}  // namespace mcopt::sim
