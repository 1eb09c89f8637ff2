#include "extract/extractor.hpp"

#include "extract/rc_tree.hpp"

#include <algorithm>
#include <unordered_map>

namespace xtalk::extract {

namespace {

/// Key for accumulating couplings per unordered net pair.
std::uint64_t pair_key(netlist::NetId a, netlist::NetId b) {
  if (a > b) std::swap(a, b);
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

struct TrackRef {
  std::uint32_t seg_index;
  double lo, hi;
  netlist::NetId net;
};

}  // namespace

Parasitics extract(const netlist::Netlist& nl,
                   const layout::RoutedDesign& routing,
                   const device::Technology& tech,
                   const ExtractionOptions& options) {
  Parasitics para(nl.num_nets());

  // --- per-net wire cap / length and per-sink RC -------------------------
  // Path resistance and wire Elmore come from the net's RC tree (shared
  // trunk with taps); the per-connection capacitance stays the L-route
  // value for validation lumping.
  for (netlist::NetId n = 0; n < nl.num_nets(); ++n) {
    const layout::RoutedNet& rn = routing.net(n);
    NetParasitics& p = para.net(n);
    p.wire_length = rn.total_length;
    p.wire_cap = rn.total_length * tech.wire_c_ground;
    if (rn.sinks.empty()) continue;

    const RcTree tree =
        build_rc_tree(nl, routing.placement(), tech, n);
    const std::vector<double> wire_elmore =
        elmore_delays(tree, std::vector<double>(tree.sinks.size(), 0.0));
    // Path resistance per sink: walk to the root.
    p.sink_wires.reserve(rn.sinks.size());
    for (std::size_t k = 0; k < rn.sinks.size(); ++k) {
      SinkWire w;
      w.sink = rn.sinks[k].sink;
      w.capacitance = rn.sinks[k].wire_length * tech.wire_c_ground;
      double r = 0.0;
      for (std::ptrdiff_t node =
               static_cast<std::ptrdiff_t>(tree.sinks[k].node);
           node > 0; node = tree.nodes[static_cast<std::size_t>(node)].parent) {
        r += tree.nodes[static_cast<std::size_t>(node)].res_to_parent;
      }
      w.resistance = r;
      w.wire_elmore = wire_elmore[k];
      p.sink_wires.push_back(w);
    }
  }

  // --- coupling between adjacent tracks ----------------------------------
  // Group segments by (direction, channel, track).
  struct ChannelKey {
    bool horizontal;
    std::uint32_t channel;
    bool operator==(const ChannelKey&) const = default;
  };
  struct ChannelKeyHash {
    std::size_t operator()(const ChannelKey& k) const {
      return (static_cast<std::size_t>(k.channel) << 1) |
             static_cast<std::size_t>(k.horizontal);
    }
  };
  std::unordered_map<ChannelKey, std::vector<std::vector<TrackRef>>,
                     ChannelKeyHash>
      channels;

  const auto& segs = routing.segments();
  for (std::uint32_t i = 0; i < segs.size(); ++i) {
    const layout::RouteSegment& s = segs[i];
    auto& tracks = channels[{s.horizontal, s.channel}];
    if (tracks.size() <= s.track) tracks.resize(s.track + 1);
    tracks[s.track].push_back({i, s.lo, s.hi, s.net});
  }

  std::unordered_map<std::uint64_t, CouplingCap> accumulated;

  for (auto& [key, tracks] : channels) {
    (void)key;
    for (auto& track : tracks) {
      std::sort(track.begin(), track.end(),
                [](const TrackRef& a, const TrackRef& b) { return a.lo < b.lo; });
    }
    const auto max_sep =
        static_cast<std::size_t>(tech.coupling_max_tracks);
    for (std::size_t t = 0; t + 1 < tracks.size(); ++t) {
      for (std::size_t sep = 1; sep <= max_sep && t + sep < tracks.size();
           ++sep) {
        const auto& a_track = tracks[t];
        const auto& b_track = tracks[t + sep];
        // Two-pointer sweep: within a track, intervals are disjoint (the
        // router's interval partitioning guarantees it), so both lo and hi
        // are sorted and the start pointer only moves forward.
        std::size_t start = 0;
        for (const TrackRef& a : a_track) {
          while (start < b_track.size() && b_track[start].hi <= a.lo) ++start;
          for (std::size_t j = start; j < b_track.size(); ++j) {
            const TrackRef& b = b_track[j];
            if (b.lo >= a.hi) break;
            const double overlap =
                std::min(a.hi, b.hi) - std::max(a.lo, b.lo);
            if (overlap <= 0.0 || a.net == b.net) continue;
            // Cap falls off linearly with track separation.
            const double cap = tech.wire_c_couple * overlap /
                               static_cast<double>(sep);
            CouplingCap& acc = accumulated[pair_key(a.net, b.net)];
            acc.net_a = std::min(a.net, b.net);
            acc.net_b = std::max(a.net, b.net);
            acc.cap += cap;
            acc.overlap_length += overlap;
          }
        }
      }
    }
  }

  for (const auto& [key, cc] : accumulated) {
    (void)key;
    if (cc.cap < options.min_coupling_cap) continue;
    para.add_coupling(cc.net_a, cc.net_b, cc.cap, cc.overlap_length);
  }
  return para;
}

}  // namespace xtalk::extract
