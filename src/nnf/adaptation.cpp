#include "nnf/adaptation.hpp"

#include "packet/builder.hpp"
#include "packet/headers.hpp"

namespace nnfv::nnf {

util::Status AdaptationLayer::bind(ContextId ctx, NfPortIndex port,
                                   Mark mark) {
  if (by_mark_.contains(mark)) {
    return util::already_exists("mark " + std::to_string(mark));
  }
  const std::pair<ContextId, NfPortIndex> path{ctx, port};
  if (by_path_.contains(path)) {
    return util::already_exists("binding for context " + std::to_string(ctx) +
                                " port " + std::to_string(port));
  }
  by_mark_[mark] = path;
  by_path_[path] = mark;
  return util::Status::ok();
}

std::size_t AdaptationLayer::unbind_context(ContextId ctx) {
  std::size_t removed = 0;
  for (auto it = by_path_.begin(); it != by_path_.end();) {
    if (it->first.first == ctx) {
      by_mark_.erase(it->second);
      it = by_path_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  return removed;
}

void AdaptationLayer::receive_burst(sim::SimTime now,
                                    packet::PacketBurst&& burst) {
  stats_.in_frames += burst.size();
  // Outputs of the whole ingress burst leave as one egress burst, each
  // re-marked with its (context, output port) mark so the switch can
  // steer it back into the right graph.
  packet::PacketBurst egress;
  egress.reserve(burst.size());

  // Demultiplex on the mark and regroup per internal path, keeping
  // same-path frames in arrival order.
  packet::BurstGroups<std::pair<ContextId, NfPortIndex>> groups(
      std::move(burst));
  while (packet::PacketBuffer* frame = groups.next()) {
    auto eth = packet::parse_ethernet(frame->data());
    if (!eth || !eth->vlan.has_value()) {
      ++stats_.untagged;
      continue;
    }
    auto binding = by_mark_.find(*eth->vlan);
    if (binding == by_mark_.end()) {
      ++stats_.unmapped_in;
      continue;
    }
    packet::set_vlan(*frame, std::nullopt);
    groups.add(binding->second, std::move(*frame));
  }

  // One process_burst per path.
  groups.flush([&](const std::pair<ContextId, NfPortIndex>& path,
                   packet::PacketBurst&& group) {
    const ContextId ctx = path.first;
    std::vector<NfOutput> outputs =
        nf_.process_burst(ctx, path.second, now, std::move(group));
    for (NfOutput& output : outputs) {
      auto out_mark = by_path_.find({ctx, output.port});
      if (out_mark == by_path_.end()) {
        ++stats_.unmapped_out;
        continue;
      }
      packet::set_vlan(output.frame, out_mark->second);
      ++stats_.out_frames;
      egress.push_back(std::move(output.frame));
    }
  });
  if (burst_tx_ && !egress.empty()) burst_tx_(std::move(egress));
}

}  // namespace nnfv::nnf
