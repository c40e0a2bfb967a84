#include "fabric/fabric_topology.h"

#include <algorithm>
#include <queue>

namespace polarcxl::fabric {

namespace {
TopologySpec LineOrCycle(uint32_t n, bool cycle,
                         cxl::CxlSwitch::Options options,
                         uint64_t uplink_bps) {
  POLAR_CHECK(n >= 1);
  TopologySpec spec;
  spec.switches.reserve(n);
  for (uint32_t i = 0; i < n; i++) {
    spec.switches.push_back({"cxl-sw" + std::to_string(i), options});
  }
  const uint32_t links = n < 2 ? 0 : (cycle && n > 2 ? n : n - 1);
  for (uint32_t i = 0; i < links; i++) {
    spec.uplinks.push_back({i, (i + 1) % n, uplink_bps});
  }
  return spec;
}
}  // namespace

TopologySpec TopologySpec::Ring(uint32_t n, cxl::CxlSwitch::Options options,
                                uint64_t uplink_bps) {
  return LineOrCycle(n, /*cycle=*/true, options, uplink_bps);
}

TopologySpec TopologySpec::Chain(uint32_t n, cxl::CxlSwitch::Options options,
                                 uint64_t uplink_bps) {
  return LineOrCycle(n, /*cycle=*/false, options, uplink_bps);
}

FabricTopology::FabricTopology(const TopologySpec& spec) {
  POLAR_CHECK_MSG(!spec.switches.empty(), "topology needs >= 1 switch");
  const uint32_t n = static_cast<uint32_t>(spec.switches.size());
  switches_.reserve(n);
  for (const TopologySpec::SwitchSpec& s : spec.switches) {
    switches_.push_back(std::make_unique<cxl::CxlSwitch>(s.name, s.options));
  }
  uplinks_.reserve(spec.uplinks.size());
  for (size_t i = 0; i < spec.uplinks.size(); i++) {
    const TopologySpec::UplinkSpec& u = spec.uplinks[i];
    POLAR_CHECK_MSG(u.a < n && u.b < n && u.a != u.b,
                    "uplink endpoints must name two distinct switches");
    uplinks_.push_back(
        {u.a, u.b,
         std::make_unique<sim::BandwidthChannel>(
             "uplink." + std::to_string(u.a) + "-" + std::to_string(u.b),
             u.bps)});
  }

  // Adjacency sorted by (neighbor index, uplink index): BFS discovers
  // equal-length paths through the lowest-index neighbor first, which makes
  // the chosen route — and therefore every charged channel sequence — a
  // deterministic function of the spec.
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> adj(n);
  for (uint32_t i = 0; i < uplinks_.size(); i++) {
    adj[uplinks_[i].a].push_back({uplinks_[i].b, i});
    adj[uplinks_[i].b].push_back({uplinks_[i].a, i});
  }
  for (auto& list : adj) std::sort(list.begin(), list.end());

  routes_.resize(static_cast<size_t>(n) * n);
  std::vector<int64_t> parent_switch(n);
  std::vector<uint32_t> parent_uplink(n);
  for (uint32_t src = 0; src < n; src++) {
    std::fill(parent_switch.begin(), parent_switch.end(), -1);
    parent_switch[src] = src;
    std::queue<uint32_t> bfs;
    bfs.push(src);
    while (!bfs.empty()) {
      const uint32_t cur = bfs.front();
      bfs.pop();
      for (const auto& [next, link] : adj[cur]) {
        if (parent_switch[next] >= 0) continue;
        parent_switch[next] = cur;
        parent_uplink[next] = link;
        bfs.push(next);
      }
    }
    for (uint32_t dst = 0; dst < n; dst++) {
      POLAR_CHECK_MSG(parent_switch[dst] >= 0,
                      "fabric topology must be connected");
      Route& route = routes_[static_cast<size_t>(src) * n + dst];
      // Walk dst -> src, then reverse into path order.
      for (uint32_t cur = dst; cur != src;
           cur = static_cast<uint32_t>(parent_switch[cur])) {
        const Uplink& up = uplinks_[parent_uplink[cur]];
        route.path.push_back(cur);
        route.channels.push_back(switches_[cur]->fabric_channel());
        route.channels.push_back(up.channel.get());
        route.extra_latency += sim::LatencyModel::kCxlUplinkHop +
                               switches_[cur]->traversal_latency();
        route.hops++;
      }
      route.path.push_back(src);
      std::reverse(route.path.begin(), route.path.end());
      std::reverse(route.channels.begin(), route.channels.end());
    }
  }
}

std::vector<uint32_t> FabricTopology::Path(uint32_t src, uint32_t dst) const {
  return RouteFor(src, dst).path;
}

void FabricTopology::AppendRouteCost(uint32_t src, uint32_t dst,
                                     sim::RouteCost* out) const {
  const Route& route = RouteFor(src, dst);
  POLAR_CHECK_MSG(
      out->num_channels + route.channels.size() <= sim::RouteCost::kMaxChannels,
      "route exceeds RouteCost::kMaxChannels (topology too deep)");
  for (sim::BandwidthChannel* chan : route.channels) {
    out->channels[out->num_channels++] = chan;
  }
  out->extra_latency += route.extra_latency;
}

}  // namespace polarcxl::fabric
