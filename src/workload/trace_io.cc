#include "workload/trace_io.h"

#include <cctype>
#include <cmath>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <unordered_set>

#include "kv/token_seq.h"
#include "sim/logging.h"

namespace muxwise::workload {

namespace {

/** Minimal scanner for the fixed JSON-lines schema WriteTrace emits. */
class LineScanner {
 public:
  LineScanner(const std::string& line, int line_number)
      : line_(line), line_number_(line_number) {}

  /** Positions after `"key":`; fatal if the key is missing. */
  void Seek(const std::string& key) {
    const std::string needle = "\"" + key + "\":";
    const std::size_t at = line_.find(needle);
    if (at == std::string::npos) {
      sim::Fatal("trace parse error at line " +
                 std::to_string(line_number_) + ": missing key '" + key +
                 "'");
    }
    pos_ = at + needle.size();
  }

  /** As Seek, but reports absence instead of dying (optional keys). */
  bool TrySeek(const std::string& key) {
    const std::string needle = "\"" + key + "\":";
    const std::size_t at = line_.find(needle);
    if (at == std::string::npos) return false;
    pos_ = at + needle.size();
    return true;
  }

  double Number() {
    SkipSpace();
    std::size_t consumed = 0;
    double value = 0.0;
    try {
      value = std::stod(line_.substr(pos_), &consumed);
    } catch (...) {
      sim::Fatal("trace parse error at line " +
                 std::to_string(line_number_) + ": expected number");
    }
    pos_ += consumed;
    return value;
  }

  std::int64_t Integer() { return static_cast<std::int64_t>(Number()); }

  void Expect(char c) {
    SkipSpace();
    if (pos_ >= line_.size() || line_[pos_] != c) {
      sim::Fatal("trace parse error at line " +
                 std::to_string(line_number_) + ": expected '" +
                 std::string(1, c) + "'");
    }
    ++pos_;
  }

  bool Peek(char c) {
    SkipSpace();
    return pos_ < line_.size() && line_[pos_] == c;
  }

 private:
  void SkipSpace() {
    while (pos_ < line_.size() &&
           std::isspace(static_cast<unsigned char>(line_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& line_;
  int line_number_;
  std::size_t pos_ = 0;
};

}  // namespace

void WriteTrace(const Trace& trace, std::ostream& out) {
  // Full round-trip precision for arrival timestamps.
  out.precision(17);
  out << "{\"trace\":\"" << trace.name << "\",\"requests\":"
      << trace.requests.size() << "}\n";
  for (const RequestSpec& spec : trace.requests) {
    // Offset in the session stream where generated tokens begin.
    std::int64_t gen_begin = 0;
    for (const kv::TokenSpan& span : spec.full_seq) {
      if (span.stream == spec.session) gen_begin = span.end;
    }
    gen_begin -= spec.output_tokens;

    out << "{\"id\":" << spec.id << ",\"arrival_s\":" << spec.arrival_seconds
        << ",\"session\":" << spec.session << ",\"turn\":" << spec.session_seq
        << ",\"output\":" << spec.output_tokens
        << ",\"reused\":" << spec.reused_tokens
        << ",\"gen_begin\":" << gen_begin;
    // Optional key: standard-class requests omit it, so traces written
    // before SLO classes existed stay byte-identical on round trip.
    if (spec.slo_class != SloClass::kStandard) {
      out << ",\"class\":" << SloClassRank(spec.slo_class);
    }
    out << ",\"prompt\":[";
    for (std::size_t i = 0; i < spec.prompt.size(); ++i) {
      const kv::TokenSpan& span = spec.prompt[i];
      if (i > 0) out << ",";
      out << "[" << span.stream << "," << span.begin << "," << span.end
          << "]";
    }
    out << "]}\n";
  }
}

void WriteTraceFile(const Trace& trace, const std::string& path) {
  std::ofstream out(path);
  if (!out) sim::Fatal("cannot open trace file for writing: " + path);
  WriteTrace(trace, out);
  if (!out) sim::Fatal("failed writing trace file: " + path);
}

Trace ReadTrace(std::istream& in) {
  Trace trace;
  std::string line;
  int line_number = 0;
  // Engines key requests by id, so a repeated id would corrupt them.
  std::unordered_set<std::int64_t> ids;

  // Header.
  if (!std::getline(in, line)) sim::Fatal("trace file is empty");
  ++line_number;
  {
    LineScanner scanner(line, line_number);
    const std::string needle = "\"trace\":\"";
    const std::size_t at = line.find(needle);
    if (at == std::string::npos) sim::Fatal("trace file missing header");
    const std::size_t end = line.find('"', at + needle.size());
    trace.name = line.substr(at + needle.size(), end - at - needle.size());
  }

  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    LineScanner scanner(line, line_number);
    RequestSpec spec;
    scanner.Seek("id");
    spec.id = scanner.Integer();
    if (!ids.insert(spec.id).second) {
      sim::Fatal("trace parse error at line " + std::to_string(line_number) +
                 ": duplicate id " + std::to_string(spec.id));
    }
    scanner.Seek("arrival_s");
    spec.arrival_seconds = scanner.Number();
    if (!std::isfinite(spec.arrival_seconds) || spec.arrival_seconds < 0.0) {
      sim::Fatal("trace parse error at line " + std::to_string(line_number) +
                 ": arrival_s must be finite and non-negative");
    }
    scanner.Seek("session");
    spec.session = scanner.Integer();
    scanner.Seek("turn");
    spec.session_seq = static_cast<int>(scanner.Integer());
    scanner.Seek("output");
    spec.output_tokens = scanner.Integer();
    scanner.Seek("reused");
    spec.reused_tokens = scanner.Integer();
    scanner.Seek("gen_begin");
    const std::int64_t gen_begin = scanner.Integer();
    if (scanner.TrySeek("class")) {
      const std::int64_t rank = scanner.Integer();
      if (rank < 0 || rank >= kNumSloClasses) {
        sim::Fatal("trace parse error at line " +
                   std::to_string(line_number) + ": bad SLO class " +
                   std::to_string(rank));
      }
      spec.slo_class = static_cast<SloClass>(rank);
    }
    scanner.Seek("prompt");
    scanner.Expect('[');
    while (!scanner.Peek(']')) {
      scanner.Expect('[');
      kv::TokenSpan span;
      span.stream = scanner.Integer();
      scanner.Expect(',');
      span.begin = scanner.Integer();
      scanner.Expect(',');
      span.end = scanner.Integer();
      scanner.Expect(']');
      kv::AppendSpan(spec.prompt, span);
      if (scanner.Peek(',')) scanner.Expect(',');
    }
    spec.input_tokens = kv::SeqLength(spec.prompt);
    spec.full_seq = spec.prompt;
    kv::AppendSpan(spec.full_seq,
                   kv::TokenSpan{spec.session, gen_begin,
                                 gen_begin + spec.output_tokens});
    trace.requests.push_back(std::move(spec));
  }
  return trace;
}

Trace ReadTraceFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) sim::Fatal("cannot open trace file: " + path);
  return ReadTrace(in);
}

}  // namespace muxwise::workload
