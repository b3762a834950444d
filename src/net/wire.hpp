// Wire format of the socket backend (src/net).
//
// Data plane — pulse frames
// -------------------------
// A pulse carries no content (paper §2), so its wire form is a single byte
// (kPulseByte) with no length prefix: k coalesced pulses are exactly k
// bytes, partial reads are impossible to mis-frame, and batched writes are
// just longer writes. Each ring edge is one full-duplex TCP connection that
// opens with a fixed-size HELLO (magic + sender index + ring size) so both
// ends can verify they were wired into the ring the coordinator intended;
// after the HELLO the stream is pulse bytes only.
//
// Control plane — coordinator frames
// ----------------------------------
// Every node keeps one TCP connection to the coordinator. Frames are a
// 1-byte type followed by a fixed number of little-endian u64 words (the
// ERR frame alone carries a u64 length + that many text bytes). The
// decoders below are incremental: feed() accepts arbitrary byte fragments
// (TCP gives no message boundaries) and emits complete messages only.
//
// The RESULT frame serializes rt::BlockingOutcome plus the endpoint's
// conservation counters, so a multi-process run reassembles exactly the
// same per-node records an in-process run reads from memory.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "runtime/port.hpp"
#include "sim/types.hpp"
#include "util/contracts.hpp"

namespace colex::net {

/// The entire data-plane vocabulary: one pulse, one byte.
inline constexpr unsigned char kPulseByte = 0x01;

/// HELLO: 4-byte magic, u32 sender index, u32 ring size (LE).
inline constexpr unsigned char kHelloMagic[4] = {'C', 'L', 'X', 'P'};
inline constexpr std::size_t kHelloSize = 12;

struct Hello {
  std::uint32_t sender = 0;
  std::uint32_t ring_size = 0;
};

inline void put_u32(std::vector<unsigned char>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<unsigned char>((v >> (8 * i)) & 0xff));
  }
}

inline void put_u64(std::vector<unsigned char>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<unsigned char>((v >> (8 * i)) & 0xff));
  }
}

inline std::uint32_t get_u32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

inline std::uint64_t get_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

inline std::vector<unsigned char> encode_hello(std::uint32_t sender,
                                               std::uint32_t ring_size) {
  std::vector<unsigned char> out(kHelloMagic, kHelloMagic + 4);
  put_u32(out, sender);
  put_u32(out, ring_size);
  return out;
}

/// Incremental HELLO decoder: feed bytes until a full frame (or a magic
/// mismatch) materializes. The data stream after the HELLO is pulse bytes,
/// which the caller drains separately.
class HelloParser {
 public:
  /// Consumes up to (kHelloSize - already buffered) bytes from [p, p+len)
  /// and returns how many it took. Check done()/error() afterwards.
  std::size_t feed(const unsigned char* p, std::size_t len) {
    std::size_t used = 0;
    while (used < len && buf_.size() < kHelloSize && error_.empty()) {
      buf_.push_back(p[used++]);
      if (buf_.size() <= 4 && buf_.back() != kHelloMagic[buf_.size() - 1]) {
        error_ = "handshake: bad magic byte at offset " +
                 std::to_string(buf_.size() - 1);
      }
    }
    return used;
  }
  bool done() const { return error_.empty() && buf_.size() == kHelloSize; }
  const std::string& error() const { return error_; }
  Hello hello() const {
    COLEX_EXPECTS(done());
    return Hello{get_u32(buf_.data() + 4), get_u32(buf_.data() + 8)};
  }

 private:
  std::vector<unsigned char> buf_;
  std::string error_;
};

/// Control-plane frame types. Formation: JOIN (node -> coordinator: my
/// index + my data-plane listen port), PEERS (coordinator -> node: ring
/// size + successor's data port), READY (node: ring edges are up), GO
/// (coordinator: start electing). Quiescence: REPORT (node, on entering an
/// idle wait or terminating: state + conservation counters), PROBE /
/// PROBE_ACK (coordinator-driven confirmation rounds), STOP (coordinator:
/// quiescence is certain — unwind). Teardown: RESULT (node: serialized
/// outcome), ERR (node: formation or wire failure, with text).
enum class Ctl : unsigned char {
  join = 1,
  peers = 2,
  ready = 3,
  go = 4,
  report = 5,
  probe = 6,
  probe_ack = 7,
  stop = 8,
  result = 9,
  err = 10,
};

/// REPORT/PROBE_ACK state word.
inline constexpr std::uint64_t kStateIdle = 0;
inline constexpr std::uint64_t kStateDone = 1;

/// RESULT payload layout (u64 words): the full rt::BlockingOutcome plus
/// the endpoint's fabric counters.
inline constexpr std::size_t kResultWords = 27;

/// Fixed word count per control frame type (ERR is variable and handled
/// separately: u64 byte length + text).
inline constexpr std::size_t ctl_words(Ctl t) {
  switch (t) {
    case Ctl::join: return 2;       // index, data_port
    case Ctl::peers: return 2;      // ring_size, succ_data_port
    case Ctl::ready: return 0;
    case Ctl::go: return 0;
    case Ctl::report: return 3;     // state, sent, consumed
    case Ctl::probe: return 1;      // round
    case Ctl::probe_ack: return 4;  // round, state, sent, consumed
    case Ctl::stop: return 0;
    case Ctl::result: return kResultWords;
    case Ctl::err: return 0;  // variable; see CtlParser
  }
  return 0;
}

/// One decoded control message.
struct CtlMsg {
  Ctl type = Ctl::ready;
  std::vector<std::uint64_t> words;
  std::string text;  ///< ERR only
};

inline std::vector<unsigned char> encode_ctl(
    Ctl t, const std::vector<std::uint64_t>& words) {
  COLEX_EXPECTS(words.size() == ctl_words(t));
  std::vector<unsigned char> out;
  out.reserve(1 + 8 * words.size());
  out.push_back(static_cast<unsigned char>(t));
  for (const std::uint64_t w : words) put_u64(out, w);
  return out;
}

inline std::vector<unsigned char> encode_err(const std::string& text) {
  std::vector<unsigned char> out;
  out.reserve(9 + text.size());
  out.push_back(static_cast<unsigned char>(Ctl::err));
  put_u64(out, text.size());
  out.insert(out.end(), text.begin(), text.end());
  return out;
}

/// Serializes one node's outcome (+ endpoint counters) as a RESULT frame.
inline std::vector<unsigned char> encode_result(
    const rt::BlockingOutcome& out, std::uint64_t sent,
    std::uint64_t consumed) {
  std::vector<std::uint64_t> w;
  w.reserve(kResultWords);
  w.push_back(out.id);
  w.push_back(static_cast<std::uint64_t>(out.role));
  w.push_back(out.counters.rho_cw);
  w.push_back(out.counters.sigma_cw);
  w.push_back(out.counters.rho_ccw);
  w.push_back(out.counters.sigma_ccw);
  w.push_back(out.rho_port[0]);
  w.push_back(out.rho_port[1]);
  w.push_back(out.sigma_port[0]);
  w.push_back(out.sigma_port[1]);
  w.push_back(static_cast<std::uint64_t>(sim::index(out.cw_port)));
  w.push_back(out.terminated ? 1 : 0);
  w.push_back(out.stopped ? 1 : 0);
  w.push_back(sent);
  w.push_back(consumed);
  for (std::size_t i = 0; i < sim::kPhaseCount; ++i) {
    w.push_back(out.phase_sends[i]);
  }
  for (std::size_t i = 0; i < sim::kPhaseCount; ++i) {
    w.push_back(out.phase_waits[i]);
  }
  COLEX_ENSURES(w.size() == kResultWords);
  return encode_ctl(Ctl::result, w);
}

/// Reassembles a RESULT frame's words into the outcome + counters.
struct DecodedResult {
  rt::BlockingOutcome outcome;
  std::uint64_t sent = 0;
  std::uint64_t consumed = 0;
};

inline DecodedResult decode_result(const std::vector<std::uint64_t>& w) {
  COLEX_EXPECTS(w.size() == kResultWords);
  DecodedResult r;
  r.outcome.id = w[0];
  r.outcome.role = static_cast<co::Role>(w[1]);
  r.outcome.counters.rho_cw = w[2];
  r.outcome.counters.sigma_cw = w[3];
  r.outcome.counters.rho_ccw = w[4];
  r.outcome.counters.sigma_ccw = w[5];
  r.outcome.rho_port[0] = w[6];
  r.outcome.rho_port[1] = w[7];
  r.outcome.sigma_port[0] = w[8];
  r.outcome.sigma_port[1] = w[9];
  r.outcome.cw_port = sim::port_from_index(static_cast<int>(w[10]));
  r.outcome.terminated = w[11] != 0;
  r.outcome.stopped = w[12] != 0;
  r.sent = w[13];
  r.consumed = w[14];
  for (std::size_t i = 0; i < sim::kPhaseCount; ++i) {
    r.outcome.phase_sends[i] = w[15 + i];
    r.outcome.phase_waits[i] = w[15 + sim::kPhaseCount + i];
  }
  return r;
}

/// Incremental control-stream decoder: buffers fragments, emits complete
/// messages. An unknown type byte is a protocol error (the stream cannot
/// be resynchronized without framing, so the connection must be dropped).
class CtlParser {
 public:
  /// Appends a fragment and moves every now-complete message into `out`.
  /// Returns false on a protocol error (error() explains).
  bool feed(const unsigned char* p, std::size_t len,
            std::vector<CtlMsg>& out) {
    if (!error_.empty()) return false;
    buf_.insert(buf_.end(), p, p + len);
    std::size_t pos = 0;
    while (pos < buf_.size()) {
      const unsigned char type_byte = buf_[pos];
      if (type_byte < static_cast<unsigned char>(Ctl::join) ||
          type_byte > static_cast<unsigned char>(Ctl::err)) {
        error_ = "control stream: unknown frame type " +
                 std::to_string(static_cast<int>(type_byte));
        return false;
      }
      const Ctl type = static_cast<Ctl>(type_byte);
      std::size_t need = 0;
      if (type == Ctl::err) {
        if (buf_.size() - pos < 9) break;  // need the length word
        need = 9 + static_cast<std::size_t>(get_u64(buf_.data() + pos + 1));
      } else {
        need = 1 + 8 * ctl_words(type);
      }
      if (buf_.size() - pos < need) break;
      CtlMsg msg;
      msg.type = type;
      if (type == Ctl::err) {
        msg.text.assign(buf_.begin() + static_cast<std::ptrdiff_t>(pos + 9),
                        buf_.begin() + static_cast<std::ptrdiff_t>(pos + need));
      } else {
        for (std::size_t i = 0; i < ctl_words(type); ++i) {
          msg.words.push_back(get_u64(buf_.data() + pos + 1 + 8 * i));
        }
      }
      out.push_back(std::move(msg));
      pos += need;
    }
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos));
    return true;
  }

  const std::string& error() const { return error_; }

 private:
  std::vector<unsigned char> buf_;
  std::string error_;
};

}  // namespace colex::net
