#include "totem/group.hpp"

#include <algorithm>

#include "cdr/cdr.hpp"

namespace eternal::totem {

GroupLayer::GroupLayer(Node& node) : node_(node) {
  node_.set_deliver([this](Delivered&& d) { on_deliver(std::move(d)); });
  node_.set_view([this](const ViewEvent& v) { on_view(v); });
}

void GroupLayer::join(const std::string& group) {
  if (!my_groups_.insert(group).second) return;
  announce();
}

void GroupLayer::leave(const std::string& group) {
  if (my_groups_.erase(group) == 0) return;
  announce();
}

void GroupLayer::send(const std::string& group, cdr::WireBuf payload,
                      std::uint64_t trace_id, std::uint64_t parent_span) {
  node_.broadcast(group, std::move(payload), /*control=*/false, trace_id,
                  parent_span);
}

void GroupLayer::subscribe(const std::string& group, MsgFn fn) {
  subscribers_[group] = std::move(fn);
}

void GroupLayer::unsubscribe(const std::string& group) {
  subscribers_.erase(group);
}

std::vector<NodeId> GroupLayer::members_of(const std::string& group) const {
  std::vector<NodeId> out;
  for (const auto& [node, groups] : node_groups_) {
    if (groups.count(group)) out.push_back(node);
  }
  return out;  // map iteration is already sorted by node id
}

void GroupLayer::announce() {
  // Announcements carry the full group list, so they are idempotent and a
  // re-announcement after a view change fully reconstructs remote state.
  cdr::Writer w(node_.arena());
  encode_group_announce_into(w, my_groups_);
  node_.broadcast(kAnnounceGroup, w.seal(), /*control=*/true);
}

void GroupLayer::handle_announce(NodeId origin, const cdr::WireBuf& payload) {
  std::set<std::string> groups;
  try {
    decode_group_announce(payload, groups);
  } catch (const cdr::MarshalError&) {
    // A malformed announcement is dropped and counted; the sender keeps
    // the groups it announced before.
    node_.count_malformed();
    return;
  }
  node_groups_[origin] = std::move(groups);
  recompute_and_fire();
}

void GroupLayer::on_deliver(Delivered&& d) {
  if (d.control) {
    if (group_view(d.group) == kAnnounceGroup) {
      handle_announce(d.origin, d.payload);
    }
    return;
  }
  // The scratch message's group string reuses its capacity across
  // deliveries, so turning the borrowed wire slice into map-lookup form
  // allocates nothing in steady state. Delivery is not re-entrant (the sim
  // runs one event at a time and subscribers enqueue follow-on work), so
  // one scratch per layer is safe.
  GroupMessage& msg = scratch_;
  const std::string_view name = group_view(d.group);
  msg.group.assign(name.data(), name.size());
  msg.sender = d.origin;
  msg.ring = d.ring;
  msg.seq = d.seq;
  msg.transitional = d.transitional;
  msg.payload = std::move(d.payload);  // delivery owns the event: no copy
  auto it = subscribers_.find(msg.group);
  if (it != subscribers_.end()) it->second(msg);
  if (catch_all_) catch_all_(msg);
}

void GroupLayer::on_view(const ViewEvent& v) {
  if (v.kind == ViewEvent::Kind::Regular) {
    // Drop knowledge about processors outside the new configuration, then
    // tell everyone (again) what we host: in a merge, the other component
    // has never heard our announcements.
    for (auto it = node_groups_.begin(); it != node_groups_.end();) {
      if (std::find(v.members.begin(), v.members.end(), it->first) ==
          v.members.end()) {
        it = node_groups_.erase(it);
      } else {
        ++it;
      }
    }
    announce();
  }
  if (ring_view_) {
    ring_view_(RingView{v.kind, v.ring, v.members});
  }
  if (v.kind == ViewEvent::Kind::Regular) {
    recompute_and_fire();
  }
}

std::map<std::string, std::vector<NodeId>> GroupLayer::compute_memberships()
    const {
  std::map<std::string, std::vector<NodeId>> m;
  for (const auto& [node, groups] : node_groups_) {
    for (const auto& g : groups) m[g].push_back(node);
  }
  return m;
}

void GroupLayer::recompute_and_fire() {
  auto current = compute_memberships();
  if (!group_view_) {
    last_fired_ = std::move(current);
    return;
  }
  // Fire for changed or new groups...
  for (const auto& [group, members] : current) {
    auto it = last_fired_.find(group);
    if (it == last_fired_.end() || it->second != members) {
      group_view_(GroupView{group, members, node_.ring_id()});
    }
  }
  // ...and for groups that lost their last member.
  for (const auto& [group, members] : last_fired_) {
    if (!current.count(group)) {
      group_view_(GroupView{group, {}, node_.ring_id()});
    }
  }
  last_fired_ = std::move(current);
}

}  // namespace eternal::totem
