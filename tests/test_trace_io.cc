#include "workload/trace_io.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "kv/token_seq.h"
#include "workload/datasets.h"

namespace muxwise::workload {
namespace {

void ExpectTracesEqual(const Trace& a, const Trace& b) {
  ASSERT_EQ(a.requests.size(), b.requests.size());
  EXPECT_EQ(a.name, b.name);
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    const RequestSpec& x = a.requests[i];
    const RequestSpec& y = b.requests[i];
    EXPECT_EQ(x.id, y.id) << i;
    EXPECT_NEAR(x.arrival_seconds, y.arrival_seconds, 1e-9) << i;
    EXPECT_EQ(x.session, y.session) << i;
    EXPECT_EQ(x.session_seq, y.session_seq) << i;
    EXPECT_EQ(x.input_tokens, y.input_tokens) << i;
    EXPECT_EQ(x.output_tokens, y.output_tokens) << i;
    EXPECT_EQ(x.reused_tokens, y.reused_tokens) << i;
    EXPECT_EQ(x.prompt, y.prompt) << i;
    EXPECT_EQ(x.full_seq, y.full_seq) << i;
    EXPECT_EQ(x.slo_class, y.slo_class) << i;
  }
}

TEST(TraceIoTest, RoundTripsSingleTurnTrace) {
  const Trace original = GenerateTrace(Dataset::kShareGpt, 50, 3.0, 71);
  std::stringstream stream;
  WriteTrace(original, stream);
  const Trace loaded = ReadTrace(stream);
  ExpectTracesEqual(original, loaded);
}

TEST(TraceIoTest, RoundTripsMultiTurnTrace) {
  // Multi-turn prompts have multi-span sequences (history + new) and
  // generated continuations on the session stream.
  const Trace original = GenerateTrace(Dataset::kConversation, 80, 2.0, 72);
  std::stringstream stream;
  WriteTrace(original, stream);
  const Trace loaded = ReadTrace(stream);
  ExpectTracesEqual(original, loaded);
}

TEST(TraceIoTest, RoundTripsSharedSystemPrompt) {
  const Trace original = GenerateTrace(Dataset::kOpenThoughts, 40, 2.0, 73);
  std::stringstream stream;
  WriteTrace(original, stream);
  const Trace loaded = ReadTrace(stream);
  ExpectTracesEqual(original, loaded);
  // Shared prefix structure preserved: stream 0 spans survive.
  EXPECT_EQ(loaded.requests.front().prompt.front().stream, 0);
}

TEST(TraceIoTest, HeaderCarriesName) {
  Trace trace = GenerateTrace(Dataset::kLoogle, 5, 1.0, 74);
  trace.name = "my-trace";
  std::stringstream stream;
  WriteTrace(trace, stream);
  EXPECT_EQ(ReadTrace(stream).name, "my-trace");
}

TEST(TraceIoTest, EmptyLinesAreIgnored) {
  const Trace original = GenerateTrace(Dataset::kShareGpt, 3, 1.0, 75);
  std::stringstream stream;
  WriteTrace(original, stream);
  std::string text = stream.str() + "\n\n";
  std::stringstream padded(text);
  EXPECT_EQ(ReadTrace(padded).requests.size(), 3u);
}

TEST(TraceIoDeathTest, MissingHeaderIsFatal) {
  std::stringstream stream("{\"id\":0}\n");
  EXPECT_EXIT(ReadTrace(stream), ::testing::ExitedWithCode(1),
              "missing header");
}

TEST(TraceIoDeathTest, MissingKeyIsFatal) {
  std::stringstream stream(
      "{\"trace\":\"x\",\"requests\":1}\n{\"id\":0,\"arrival_s\":0}\n");
  EXPECT_EXIT(ReadTrace(stream), ::testing::ExitedWithCode(1),
              "missing key");
}

TEST(TraceIoTest, RoundTripsSloClasses) {
  MmppOptions options;
  options.duration_seconds = 60.0;
  options.calm_rate_per_second = 3.0;
  const Trace original = GenerateMmppTrace(options, 81);
  std::stringstream stream;
  WriteTrace(original, stream);
  const Trace loaded = ReadTrace(stream);
  ExpectTracesEqual(original, loaded);
  bool non_standard = false;
  for (const RequestSpec& spec : loaded.requests) {
    non_standard |= spec.slo_class != SloClass::kStandard;
  }
  EXPECT_TRUE(non_standard);  // The optional key was actually exercised.
}

TEST(TraceIoTest, ClasslessTracesOmitTheClassKey) {
  // Traces written before SLO classes existed parse unchanged, and
  // all-standard traces keep emitting the legacy byte-identical form.
  const Trace original = GenerateTrace(Dataset::kShareGpt, 5, 1.0, 82);
  std::stringstream stream;
  WriteTrace(original, stream);
  EXPECT_EQ(stream.str().find("\"class\""), std::string::npos);
  const Trace loaded = ReadTrace(stream);
  for (const RequestSpec& spec : loaded.requests) {
    EXPECT_EQ(spec.slo_class, SloClass::kStandard);
  }
}

TEST(TraceIoDeathTest, BadSloClassIsFatal) {
  Trace trace = GenerateTrace(Dataset::kShareGpt, 1, 1.0, 83);
  std::stringstream stream;
  WriteTrace(trace, stream);
  std::string text = stream.str();
  const std::size_t at = text.find(",\"prompt\"");
  ASSERT_NE(at, std::string::npos);
  text.insert(at, ",\"class\":7");
  std::stringstream bad(text);
  EXPECT_EXIT(ReadTrace(bad), ::testing::ExitedWithCode(1),
              "bad SLO class");
}

/**
 * A written two-request trace with the second request's `key` value
 * replaced by `value` (the request sits on line 3, after the header).
 */
std::string TraceWithSecondValue(const std::string& key,
                                 const std::string& value) {
  const Trace trace = GenerateTrace(Dataset::kShareGpt, 2, 1.0, 84);
  std::stringstream stream;
  WriteTrace(trace, stream);
  std::string text = stream.str();
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = text.rfind(needle) + needle.size();
  text.replace(at, text.find(',', at) - at, value);
  return text;
}

TEST(TraceIoDeathTest, NonFiniteArrivalIsFatal) {
  for (const char* value : {"nan", "inf", "-inf"}) {
    std::stringstream stream(TraceWithSecondValue("arrival_s", value));
    EXPECT_EXIT(ReadTrace(stream), ::testing::ExitedWithCode(1),
                "line 3: arrival_s must be finite and non-negative")
        << value;
  }
}

TEST(TraceIoDeathTest, NegativeArrivalIsFatal) {
  std::stringstream stream(TraceWithSecondValue("arrival_s", "-0.5"));
  EXPECT_EXIT(ReadTrace(stream), ::testing::ExitedWithCode(1),
              "line 3: arrival_s must be finite and non-negative");
}

TEST(TraceIoDeathTest, DuplicateIdIsFatal) {
  std::stringstream stream(TraceWithSecondValue("id", "0"));
  EXPECT_EXIT(ReadTrace(stream), ::testing::ExitedWithCode(1),
              "line 3: duplicate id 0");
}

TEST(TraceIoTest, FileRoundTrip) {
  const Trace original = GenerateTrace(Dataset::kToolAgent, 20, 2.0, 76);
  const std::string path = ::testing::TempDir() + "/muxwise_trace_io.jsonl";
  WriteTraceFile(original, path);
  const Trace loaded = ReadTraceFile(path);
  ExpectTracesEqual(original, loaded);
}

}  // namespace
}  // namespace muxwise::workload
