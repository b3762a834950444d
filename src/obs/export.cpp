#include "obs/export.hpp"

#include <array>
#include <deque>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "util/contracts.hpp"
#include "util/json.hpp"

namespace colex::obs {

namespace {

constexpr std::array<sim::TraceEvent::Kind, 8> kAllKinds{
    sim::TraceEvent::Kind::send,          sim::TraceEvent::Kind::deliver,
    sim::TraceEvent::Kind::fault_drop,    sim::TraceEvent::Kind::fault_duplicate,
    sim::TraceEvent::Kind::fault_spurious, sim::TraceEvent::Kind::fault_crash,
    sim::TraceEvent::Kind::fault_recover, sim::TraceEvent::Kind::fault_corrupt,
};

bool kind_from_string(const std::string& s, sim::TraceEvent::Kind& out) {
  for (const auto kind : kAllKinds) {
    if (s == sim::to_string(kind)) {
      out = kind;
      return true;
    }
  }
  return false;
}

void write_event_json(std::ostream& os, const sim::TraceEvent& e) {
  os << "{\"type\":\"event\",\"index\":" << e.index << ",\"kind\":\""
     << sim::to_string(e.kind) << "\",\"node\":" << e.node
     << ",\"port\":" << sim::index(e.port) << ",\"dir\":\""
     << sim::to_string(e.dir) << "\"}";
}

void write_meta_json(std::ostream& os, const TraceMeta& meta) {
  os << "{\"type\":\"meta\",\"format\":\"colex-trace-v1\",\"algorithm\":";
  util::json::write_string(os, meta.algorithm);
  os << ",\"n\":" << meta.n << ",\"id_max\":" << meta.id_max
     << ",\"pulse_bound\":" << meta.pulse_bound() << ",\"port_flips\":";
  util::json::write_uints(os, meta.port_flips);
  os << "}";
}

}  // namespace

void write_jsonl(std::ostream& os, const std::vector<sim::TraceEvent>& events,
                 const TraceMeta& meta, const Registry* metrics) {
  write_meta_json(os, meta);
  os << "\n";
  for (const auto& e : events) {
    write_event_json(os, e);
    os << "\n";
  }
  if (metrics != nullptr) {
    os << "{\"type\":\"metrics\",\"data\":";
    metrics->write_json(os);
    os << "}\n";
  }
}

std::string to_jsonl(const std::vector<sim::TraceEvent>& events,
                     const TraceMeta& meta, const Registry* metrics) {
  std::ostringstream os;
  write_jsonl(os, events, meta, metrics);
  return os.str();
}

LoadedTrace load_jsonl(std::istream& is) {
  LoadedTrace out;
  std::string line;
  bool have_meta = false;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const util::json::Object obj(line);
    const auto type = obj.at<std::string>("type");
    if (type == "meta") {
      COLEX_EXPECTS(!have_meta);
      have_meta = true;
      COLEX_EXPECTS(obj.at<std::string>("format") == "colex-trace-v1");
      obj.get("algorithm", out.meta.algorithm);
      obj.get("n", out.meta.n);
      obj.get("id_max", out.meta.id_max);
      obj.get("port_flips", out.meta.port_flips);
    } else if (type == "event") {
      sim::TraceEvent e;
      e.index = obj.at<std::uint64_t>("index");
      COLEX_EXPECTS(kind_from_string(obj.at<std::string>("kind"), e.kind));
      e.node = obj.at<sim::NodeId>("node");
      const auto port = obj.at<std::uint64_t>("port");
      COLEX_EXPECTS(port <= 1);
      e.port = sim::port_from_index(static_cast<int>(port));
      e.dir = obj.at<std::string>("dir") == "cw" ? sim::Direction::cw
                                                 : sim::Direction::ccw;
      out.events.push_back(e);
    } else if (type == "metrics") {
      if (const auto* data = obj.find("data")) out.metrics_json = *data;
    }
    // Unknown line types are skipped: forward compatibility.
  }
  COLEX_EXPECTS(have_meta);
  return out;
}

LoadedTrace load_jsonl_file(const std::string& path) {
  std::ifstream in(path);
  COLEX_EXPECTS(in.good());
  return load_jsonl(in);
}

void write_chrome_trace(std::ostream& os,
                        const std::vector<sim::TraceEvent>& events,
                        const TraceMeta& meta, const Registry* metrics) {
  // Track count: the declared ring size, or (shape unknown) whatever nodes
  // the stream mentions.
  std::size_t n = meta.n;
  if (n == 0) {
    for (const auto& e : events) n = std::max(n, e.node + 1);
  }
  const auto wiring = sim::ring_wiring(n == 0 ? 1 : n, meta.port_flips);
  const bool can_match = meta.n != 0;  // FIFO matching needs true wiring

  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto sep = [&os, &first] {
    if (!first) os << ",";
    first = false;
    os << "\n";
  };

  sep();
  os << "{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\",\"args\":{"
        "\"name\":";
  util::json::write_string(
      os, meta.algorithm.empty() ? "colex ring"
                                 : "colex ring (" + meta.algorithm + ")");
  os << "}}";
  for (std::size_t v = 0; v < n; ++v) {
    sep();
    os << "{\"ph\":\"M\",\"pid\":0,\"tid\":" << v
       << ",\"name\":\"thread_name\",\"args\":{\"name\":\"node " << v
       << "\"}}";
  }

  auto instant = [&](const sim::TraceEvent& e, const char* name) {
    sep();
    os << "{\"name\":\"" << name << "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":"
       << e.index << ",\"pid\":0,\"tid\":" << e.node << ",\"cat\":\""
       << sim::to_string(e.dir) << "\"}";
  };

  // FIFO span matching, mirroring the trace audit's channel balances: a
  // pending entry is (ts, label) on the channel keyed by sender node+port.
  struct PendingSend {
    std::uint64_t ts = 0;
    const char* label = "pulse";
  };
  std::vector<std::deque<PendingSend>> channel(2 * n);
  auto slot = [&channel](sim::NodeId node, sim::Port port)
      -> std::deque<PendingSend>& {
    return channel[node * 2 + static_cast<std::size_t>(sim::index(port))];
  };

  for (const auto& e : events) {
    switch (e.kind) {
      case sim::TraceEvent::Kind::send:
        if (can_match) {
          slot(e.node, e.port).push_back({e.index, "pulse"});
        } else {
          instant(e, "send");
        }
        break;
      case sim::TraceEvent::Kind::fault_duplicate:
        instant(e, "fault-duplicate");
        if (can_match) {
          slot(e.node, e.port).push_back({e.index, "pulse (duplicated)"});
        }
        break;
      case sim::TraceEvent::Kind::fault_spurious:
        instant(e, "fault-spurious");
        if (can_match) {
          slot(e.node, e.port).push_back({e.index, "pulse (spurious)"});
        }
        break;
      case sim::TraceEvent::Kind::fault_drop: {
        instant(e, "fault-drop");
        if (can_match) {
          auto& q = slot(e.node, e.port);
          if (!q.empty()) q.pop_front();
        }
        break;
      }
      case sim::TraceEvent::Kind::deliver: {
        if (!can_match) {
          instant(e, "deliver");
          break;
        }
        const auto from = wiring(e.node, e.port);
        auto& q = slot(from.first, from.second);
        if (q.empty()) {
          // Over-delivery (silent tampering): visible as an orphan marker
          // rather than silently skipped.
          instant(e, "deliver (unmatched)");
          break;
        }
        const PendingSend send = q.front();
        q.pop_front();
        sep();
        os << "{\"name\":\"" << send.label << "\",\"ph\":\"X\",\"ts\":"
           << send.ts << ",\"dur\":" << (e.index - send.ts)
           << ",\"pid\":0,\"tid\":" << from.first << ",\"cat\":\""
           << sim::to_string(e.dir) << "\",\"args\":{\"to_node\":" << e.node
           << ",\"send_index\":" << send.ts << ",\"deliver_index\":"
           << e.index << "}}";
        break;
      }
      case sim::TraceEvent::Kind::fault_crash:
        instant(e, "fault-crash");
        break;
      case sim::TraceEvent::Kind::fault_recover:
        instant(e, "fault-recover");
        break;
      case sim::TraceEvent::Kind::fault_corrupt:
        instant(e, "fault-corrupt");
        break;
    }
  }

  // Pulses still in flight at the end of the stream render as zero-length
  // markers so nothing recorded is invisible in the viewer.
  for (std::size_t c = 0; c < channel.size(); ++c) {
    for (const auto& send : channel[c]) {
      sep();
      os << "{\"name\":\"in flight at end\",\"ph\":\"i\",\"s\":\"t\",\"ts\":"
         << send.ts << ",\"pid\":0,\"tid\":" << (c / 2) << "}";
    }
  }

  os << "\n]";
  if (metrics != nullptr) {
    os << ",\"otherData\":{\"metrics\":";
    metrics->write_json(os);
    os << "}";
  }
  os << "}\n";
}

std::string to_chrome_trace(const std::vector<sim::TraceEvent>& events,
                            const TraceMeta& meta, const Registry* metrics) {
  std::ostringstream os;
  write_chrome_trace(os, events, meta, metrics);
  return os.str();
}

}  // namespace colex::obs
