// Operation and invocation identifiers (Section 6.1 of the companion text).
//
// Every multicast message has a unique (configuration, sequence) pair from
// the total order. An *operation identifier* is
//
//     { sequence number of the message that invoked the parent operation,
//       sequence number the ORB assigned to this operation within it }
//
// and is identical at every replica of the invoking group — replicas are
// deterministic, so the k-th nested operation of the same parent gets the
// same identifier everywhere. The *invocation identifier* additionally
// carries the sequence number of the message carrying this particular copy,
// which differs between duplicates. Duplicate detection keys on the
// operation identifier alone.
#pragma once

#include <compare>
#include <cstdint>
#include <string>

#include "cdr/cdr.hpp"
#include "util/hash.hpp"

namespace eternal::rep {

/// Position in the system-wide total order: (ring epoch, sequence).
struct GlobalSeq {
  std::uint64_t epoch = 0;
  std::uint64_t seq = 0;

  auto operator<=>(const GlobalSeq&) const = default;
  bool valid() const noexcept { return epoch != 0 || seq != 0; }
  std::string str() const {
    return std::to_string(epoch) + ":" + std::to_string(seq);
  }
};

struct OperationId {
  /// Total-order position of the message that invoked the *parent*
  /// operation. For top-level client calls this is a synthetic per-client
  /// coordinate (epoch 0), unique because clients are not replicated.
  GlobalSeq parent;
  /// Sequence number the ORB assigned to this operation within the parent.
  std::uint64_t op_seq = 0;

  auto operator<=>(const OperationId&) const = default;
  std::string str() const {
    return parent.str() + "/" + std::to_string(op_seq);
  }
  std::uint64_t hash() const noexcept {
    return util::fnv1a_u64(op_seq,
                           util::fnv1a_u64(parent.seq,
                                           util::fnv1a_u64(parent.epoch)));
  }
};

// Wire layout of the identifiers (field visitors, cdr.hpp), shared by the
// envelope and the durable journal record.
template <class IO>
void io(IO& wire, cdr::Ref<IO, GlobalSeq> s) {
  wire.field(s.epoch);
  wire.field(s.seq);
}

template <class IO>
void io(IO& wire, cdr::Ref<IO, OperationId> op) {
  io(wire, op.parent);
  wire.field(op.op_seq);
}

struct InvocationId {
  GlobalSeq carrier;  // message carrying this copy (differs per duplicate)
  OperationId op;     // identical for all duplicates
};

}  // namespace eternal::rep
