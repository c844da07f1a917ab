#include "rep/oracle.hpp"

#include <string_view>

#include "cdr/cdr.hpp"
#include "util/hash.hpp"

namespace eternal::rep {

std::string DivergenceReport::str() const {
  return "op=" + op.str() + " version=" + std::to_string(state_version) +
         " node " + std::to_string(node_a) +
         " digest=" + std::to_string(digest_a) + " vs node " +
         std::to_string(node_b) + " digest=" + std::to_string(digest_b);
}

std::uint64_t digest_state(const Replica& replica,
                           std::uint64_t state_version) {
  cdr::Arena arena;
  cdr::Writer w(arena);
  replica.get_state(w);
  const std::span<const std::uint8_t> bytes = w.written();
  const std::string_view view(reinterpret_cast<const char*>(bytes.data()),
                              bytes.size());
  return util::fnv1a(view, util::fnv1a_u64(state_version));
}

std::optional<DivergenceReport> DivergenceOracle::observe(
    const std::string& group, const OperationId& op, std::uint32_t node,
    std::uint64_t digest, std::uint64_t state_version) {
  const Key key{group, op};
  auto it = seen_.find(key);
  if (it == seen_.end()) {
    // First copy delivered (same one at every engine — total order) is the
    // reference all sibling digests are judged against.
    if (seen_.size() >= kMaxTracked) {
      seen_.erase(order_.front());
      order_.pop_front();
    }
    seen_.emplace(key, Entry{node, digest, state_version, false});
    order_.push_back(key);
    return std::nullopt;
  }
  Entry& ref = it->second;
  if (ref.reported || digest == ref.digest) return std::nullopt;
  ref.reported = true;
  DivergenceReport report;
  report.group = group;
  report.op = op;
  report.state_version = ref.version;
  report.node_a = ref.node;
  report.digest_a = ref.digest;
  report.node_b = node;
  report.digest_b = digest;
  return report;
}

void DivergenceOracle::forget(const std::string& group) {
  for (auto it = seen_.begin(); it != seen_.end();) {
    it = it->first.first == group ? seen_.erase(it) : std::next(it);
  }
  std::erase_if(order_, [&](const Key& k) { return k.first == group; });
}

}  // namespace eternal::rep
