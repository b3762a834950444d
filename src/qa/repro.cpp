#include "qa/repro.hpp"

#include <cstdio>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

#include "util/contracts.hpp"
#include "util/json.hpp"

namespace colex::qa {

namespace {

void write_double(std::ostream& os, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.*g",
                std::numeric_limits<double>::max_digits10, v);
  os << buf;
}

bool fault_kind_from_string(const std::string& s, sim::FaultKind& out) {
  for (const sim::FaultKind k :
       {sim::FaultKind::drop, sim::FaultKind::duplicate,
        sim::FaultKind::spurious, sim::FaultKind::crash,
        sim::FaultKind::recover, sim::FaultKind::corrupt}) {
    if (s == sim::to_string(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

void write_profile_fields(std::ostream& os,
                          const sim::ChannelFaultProfile& p) {
  os << "\"drop\":";
  write_double(os, p.drop_prob);
  os << ",\"duplicate\":";
  write_double(os, p.duplicate_prob);
  os << ",\"spurious\":";
  write_double(os, p.spurious_prob);
}

sim::ChannelFaultProfile read_profile_fields(const util::json::Object& obj) {
  sim::ChannelFaultProfile p;
  obj.get("drop", p.drop_prob);
  obj.get("duplicate", p.duplicate_prob);
  obj.get("spurious", p.spurious_prob);
  return p;
}

}  // namespace

void write_repro(std::ostream& os, const ReproFile& repro) {
  const FuzzCase& c = repro.c;
  os << "{\"type\":\"repro\",\"format\":\"colex-repro-v1\",\"seed\":" << c.seed
     << ",\"algorithm\":\"" << to_string(c.alg) << "\",\"ids\":";
  util::json::write_uints(os, c.ids);
  os << ",\"port_flips\":";
  util::json::write_uints(os, c.port_flips);
  os << ",\"schedule_seed\":" << c.schedule_seed
     << ",\"max_events\":" << c.max_events
     << ",\"planted\":" << (repro.props.planted_bound_bug ? 1 : 0)
     << ",\"check_replay\":" << (repro.props.check_replay ? 1 : 0)
     << ",\"failed_property\":";
  util::json::write_string(os, repro.failed_property);
  os << ",\"diagnostic\":";
  util::json::write_string(os, repro.diagnostic);
  os << "}\n";

  os << "{\"type\":\"tape\",\"choices\":";
  util::json::write_uints(os, c.tape);
  os << "}\n";

  os << "{\"type\":\"fault-plan\",\"plan_seed\":" << c.faults.seed << ",";
  write_profile_fields(os, c.faults.all_channels);
  os << "}\n";
  for (const auto& [channel, profile] : c.faults.channel_overrides) {
    os << "{\"type\":\"override\",\"channel\":" << channel << ",";
    write_profile_fields(os, profile);
    os << "}\n";
  }
  for (const auto& f : c.faults.script) {
    os << "{\"type\":\"scripted\",\"kind\":\"" << sim::to_string(f.kind)
       << "\",\"at_event\":" << f.at_event << ",\"channel\":" << f.channel
       << ",\"node\":" << f.node << "}\n";
  }
  for (const auto& [channel, count] : c.faults.preseed_channels) {
    os << "{\"type\":\"preseed\",\"channel\":" << channel
       << ",\"count\":" << count << "}\n";
  }
  if (c.corrupt.active) {
    os << "{\"type\":\"corrupt\",\"node\":" << c.corrupt.node
       << ",\"counters\":";
    util::json::write_uints(os, c.corrupt.counters);
    os << "}\n";
  }
}

std::string to_repro(const ReproFile& repro) {
  std::ostringstream os;
  write_repro(os, repro);
  return os.str();
}

ReproFile load_repro(std::istream& is) {
  ReproFile out;
  std::string line;
  bool have_header = false;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const util::json::Object obj(line);
    const auto type = obj.at<std::string>("type");
    if (type == "repro") {
      COLEX_EXPECTS(!have_header);
      have_header = true;
      COLEX_EXPECTS(obj.at<std::string>("format") == "colex-repro-v1");
      obj.get("seed", out.c.seed);
      COLEX_EXPECTS(
          algorithm_from_string(obj.at<std::string>("algorithm"), out.c.alg));
      out.c.ids = obj.at<std::vector<std::uint64_t>>("ids");
      COLEX_EXPECTS(!out.c.ids.empty());
      obj.get("port_flips", out.c.port_flips);
      obj.get("schedule_seed", out.c.schedule_seed);
      obj.get("max_events", out.c.max_events);
      obj.get("planted", out.props.planted_bound_bug);
      obj.get("check_replay", out.props.check_replay);
      obj.get("failed_property", out.failed_property);
      obj.get("diagnostic", out.diagnostic);
    } else if (type == "tape") {
      out.c.tape = obj.at<std::vector<std::size_t>>("choices");
    } else if (type == "fault-plan") {
      obj.get("plan_seed", out.c.faults.seed);
      out.c.faults.all_channels = read_profile_fields(obj);
    } else if (type == "override") {
      out.c.faults.channel_overrides.emplace_back(
          obj.at<std::size_t>("channel"), read_profile_fields(obj));
    } else if (type == "scripted") {
      sim::ScriptedFault f;
      COLEX_EXPECTS(
          fault_kind_from_string(obj.at<std::string>("kind"), f.kind));
      obj.get("at_event", f.at_event);
      obj.get("channel", f.channel);
      obj.get("node", f.node);
      out.c.faults.script.push_back(f);
    } else if (type == "preseed") {
      out.c.faults.preseed_channels.emplace_back(
          obj.at<std::size_t>("channel"), obj.at<std::size_t>("count"));
    } else if (type == "corrupt") {
      const auto counters = obj.at<std::vector<std::uint64_t>>("counters");
      COLEX_EXPECTS(counters.size() == 4);
      out.c.corrupt.active = true;
      out.c.corrupt.node = obj.at<sim::NodeId>("node");
      for (std::size_t i = 0; i < 4; ++i) {
        out.c.corrupt.counters[i] = counters[i];
      }
    }
    // Unknown line types are skipped: forward compatibility.
  }
  COLEX_EXPECTS(have_header);
  return out;
}

ReproFile load_repro_file(const std::string& path) {
  std::ifstream in(path);
  COLEX_EXPECTS(in.good());
  return load_repro(in);
}

void save_repro_file(const std::string& path, const ReproFile& repro) {
  std::ofstream out(path);
  COLEX_EXPECTS(out.good());
  write_repro(out, repro);
  COLEX_EXPECTS(out.good());
}

obs::TraceMeta trace_meta_for(const FuzzCase& c) {
  obs::TraceMeta meta;
  meta.algorithm = to_string(c.alg);
  meta.n = c.n();
  meta.id_max = c.effective_id_max();
  meta.port_flips = c.port_flips;
  return meta;
}

}  // namespace colex::qa
