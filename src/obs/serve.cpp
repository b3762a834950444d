#include "obs/serve.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdlib>
#include <sstream>
#include <utility>
#include <vector>

#include "util/contracts.hpp"
#include "util/json.hpp"

namespace colex::obs {

// ---------------------------------------------------------------------------
// Text exposition
// ---------------------------------------------------------------------------

namespace {

bool is_name_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == ':';
}

std::string sanitize(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) out.push_back(is_name_char(c) ? c : '_');
  return out;
}

void write_escaped_label_value(std::ostream& os, const std::string& v) {
  for (const char c : v) {
    switch (c) {
      case '\\': os << "\\\\"; break;
      case '"': os << "\\\""; break;
      case '\n': os << "\\n"; break;
      default: os << c;
    }
  }
}

struct ParsedName {
  std::string family;  // sanitized, without the colex_ prefix yet
  std::vector<std::pair<std::string, std::string>> labels;
};

/// Splits a registry name composed by obs::labeled() back into family and
/// label pairs. Names without a '{...}' tail have no labels; a malformed
/// tail is treated as part of the family (sanitize flattens the braces).
ParsedName split_name(const std::string& name) {
  ParsedName p;
  const std::size_t brace = name.find('{');
  if (brace == std::string::npos || name.back() != '}') {
    p.family = sanitize(name);
    return p;
  }
  p.family = sanitize(name.substr(0, brace));
  const std::string inner = name.substr(brace + 1, name.size() - brace - 2);
  std::size_t start = 0;
  while (start <= inner.size()) {
    std::size_t comma = inner.find(',', start);
    if (comma == std::string::npos) comma = inner.size();
    const std::string part = inner.substr(start, comma - start);
    if (!part.empty()) {
      const std::size_t eq = part.find('=');
      if (eq == std::string::npos) {
        p.labels.emplace_back(sanitize(part), std::string());
      } else {
        p.labels.emplace_back(sanitize(part.substr(0, eq)),
                              part.substr(eq + 1));
      }
    }
    start = comma + 1;
  }
  return p;
}

/// Renders `k1="v1",k2="v2"` (no surrounding braces) with an optional
/// trailing `le` pair for histogram bucket lines.
std::string render_labels(
    const std::vector<std::pair<std::string, std::string>>& labels,
    const std::string* le = nullptr) {
  std::ostringstream os;
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) os << ",";
    first = false;
    os << k << "=\"";
    write_escaped_label_value(os, v);
    os << "\"";
  }
  if (le != nullptr) {
    if (!first) os << ",";
    os << "le=\"" << *le << "\"";
  }
  return os.str();
}

std::string with_labels(const std::string& family, const std::string& labels) {
  if (labels.empty()) return family;
  return family + "{" + labels + "}";
}

/// One exposition family: a `# TYPE` header plus its contiguous samples.
/// Grouping is required by the format — all samples of a family must be
/// adjacent — and first-registration order is preserved across the merge.
struct Family {
  std::string name;
  const char* type;
  std::vector<std::string> lines;
};

Family& family_of(std::vector<Family>& fams, const std::string& name,
                  const char* type) {
  for (auto& f : fams) {
    if (f.name == name) return f;
  }
  fams.push_back(Family{name, type, {}});
  return fams.back();
}

std::string format_double(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

}  // namespace

void write_prometheus(std::ostream& os, const Registry& reg) {
  std::vector<Family> fams;

  for (const auto& [name, c] : reg.counters()) {
    const ParsedName p = split_name(name);
    Family& f = family_of(fams, "colex_" + p.family + "_total", "counter");
    f.lines.push_back(with_labels(f.name, render_labels(p.labels)) + " " +
                      std::to_string(c->value()));
  }

  for (const auto& [name, g] : reg.gauges()) {
    const ParsedName p = split_name(name);
    Family& f = family_of(fams, "colex_" + p.family, "gauge");
    f.lines.push_back(with_labels(f.name, render_labels(p.labels)) + " " +
                      format_double(g->value()));
  }

  for (const auto& [name, h] : reg.histograms()) {
    const ParsedName p = split_name(name);
    Family& f = family_of(fams, "colex_" + p.family, "histogram");
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h->bounds().size(); ++i) {
      cumulative += h->buckets()[i];
      const std::string le = format_double(h->bounds()[i]);
      f.lines.push_back(f.name + "_bucket{" + render_labels(p.labels, &le) +
                        "} " + std::to_string(cumulative));
    }
    const std::string inf = "+Inf";
    f.lines.push_back(f.name + "_bucket{" + render_labels(p.labels, &inf) +
                      "} " + std::to_string(h->count()));
    f.lines.push_back(with_labels(f.name + "_sum", render_labels(p.labels)) +
                      " " + format_double(h->sum()));
    f.lines.push_back(with_labels(f.name + "_count", render_labels(p.labels)) +
                      " " + std::to_string(h->count()));
  }

  for (const Family& f : fams) {
    os << "# TYPE " << f.name << " " << f.type << "\n";
    for (const std::string& line : f.lines) os << line << "\n";
  }
}

std::string to_prometheus(const Registry& reg) {
  std::ostringstream os;
  write_prometheus(os, reg);
  return os.str();
}

// ---------------------------------------------------------------------------
// Snapshot loader
// ---------------------------------------------------------------------------

Registry registry_from_json(const std::string& text) {
  namespace json = util::json;
  Registry reg;
  const json::Object snapshot(text);
  const json::Object counters(snapshot.raw("counters"));
  for (const auto& [name, value] : counters.members()) {
    reg.counter(name).inc(json::as<std::uint64_t>(value));
  }
  const json::Object gauges(snapshot.raw("gauges"));
  for (const auto& [name, value] : gauges.members()) {
    reg.gauge(name).set(json::as<double>(value));
  }
  const json::Object histograms(snapshot.raw("histograms"));
  for (const auto& [name, value] : histograms.members()) {
    const json::Object h(value);
    reg.histogram(name, h.at<std::vector<double>>("bounds"))
        .restore(h.at<std::uint64_t>("count"), h.at<double>("sum"),
                 h.at<double>("max"),
                 h.at<std::vector<std::uint64_t>>("buckets"));
  }
  return reg;
}

// ---------------------------------------------------------------------------
// HTTP server + client
// ---------------------------------------------------------------------------

namespace {

std::string make_response(int status, const char* reason,
                          const char* content_type, const std::string& body) {
  std::ostringstream os;
  os << "HTTP/1.1 " << status << " " << reason << "\r\n"
     << "Content-Type: " << content_type << "\r\n"
     << "Content-Length: " << body.size() << "\r\n"
     << "Connection: close\r\n\r\n"
     << body;
  return os.str();
}

bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

void set_recv_timeout(int fd, int seconds) {
  timeval tv{};
  tv.tv_sec = seconds;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

}  // namespace

bool MetricsServer::start() {
  COLEX_EXPECTS(static_cast<bool>(options_.metrics));
  COLEX_EXPECTS(listen_fd_ < 0);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 16) != 0) {
    ::close(fd);
    return false;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    ::close(fd);
    return false;
  }
  port_ = ntohs(bound.sin_port);
  listen_fd_ = fd;
  stop_.store(false);
  thread_ = std::thread([this] { serve_loop(); });
  return true;
}

void MetricsServer::stop() {
  if (listen_fd_ < 0) return;
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
}

std::string MetricsServer::respond(const std::string& path) const {
  try {
    if (path == "/metrics") {
      return make_response(200, "OK", "text/plain; version=0.0.4",
                           to_prometheus(options_.metrics()));
    }
    if (path == "/healthz") {
      return make_response(200, "OK", "text/plain", "ok\n");
    }
    if (path == "/debug/flight") {
      if (!options_.flight) {
        return make_response(404, "Not Found", "text/plain",
                             "flight recorder not wired\n");
      }
      return make_response(200, "OK", "text/plain", options_.flight());
    }
    return make_response(404, "Not Found", "text/plain", "not found\n");
  } catch (const std::exception& e) {
    return make_response(500, "Internal Server Error", "text/plain",
                         std::string("snapshot failed: ") + e.what() + "\n");
  }
}

void MetricsServer::serve_loop() {
  while (!stop_.load()) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, 50);  // 50ms tick bounds stop() latency
    if (ready <= 0) continue;
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;
    set_recv_timeout(client, 2);  // a stalled scraper must not pin the loop
    std::string request;
    char buf[1024];
    while (request.find("\r\n\r\n") == std::string::npos &&
           request.size() < 8192) {
      const ssize_t n = ::recv(client, buf, sizeof(buf), 0);
      if (n <= 0) break;
      request.append(buf, static_cast<std::size_t>(n));
    }
    const std::size_t method_end = request.find(' ');
    std::string path;
    if (request.compare(0, 4, "GET ") == 0 &&
        method_end != std::string::npos) {
      const std::size_t path_end = request.find(' ', method_end + 1);
      if (path_end != std::string::npos) {
        path = request.substr(method_end + 1, path_end - method_end - 1);
      }
    }
    const std::string response =
        path.empty()
            ? make_response(400, "Bad Request", "text/plain", "bad request\n")
            : respond(path);
    send_all(client, response);
    ::close(client);
  }
}

bool http_get(const std::string& host, std::uint16_t port,
              const std::string& path, int& status, std::string& body) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  set_recv_timeout(fd, 5);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string ip = (host == "localhost") ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, ip.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0) {
    ::close(fd);
    return false;
  }
  const std::string request = "GET " + path + " HTTP/1.1\r\nHost: " + host +
                              "\r\nConnection: close\r\n\r\n";
  if (!send_all(fd, request)) {
    ::close(fd);
    return false;
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0) {
      ::close(fd);
      return false;
    }
    if (n == 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const std::size_t space = response.find(' ');
  const std::size_t header_end = response.find("\r\n\r\n");
  if (space == std::string::npos || header_end == std::string::npos) {
    return false;
  }
  status = static_cast<int>(std::strtol(response.c_str() + space + 1, nullptr, 10));
  body = response.substr(header_end + 4);
  return true;
}

}  // namespace colex::obs
