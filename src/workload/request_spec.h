#ifndef MUXWISE_WORKLOAD_REQUEST_SPEC_H_
#define MUXWISE_WORKLOAD_REQUEST_SPEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "kv/token_seq.h"
#include "workload/slo.h"

namespace muxwise::workload {

/**
 * Immutable description of one request in a trace.
 *
 * `prompt` is the full model input (reused context plus new tokens) as a
 * compressed token sequence; `full_seq` appends the tokens the request
 * will generate, i.e. what gets committed to the KV cache on completion
 * so later turns of the session can reuse it.
 */
struct RequestSpec {
  std::int64_t id = 0;

  /** Arrival time offset from trace start, seconds. */
  double arrival_seconds = 0.0;

  /** Conversation session (equals the token stream id). */
  std::int64_t session = 0;

  /** Position of this turn within its session (0-based). */
  int session_seq = 0;

  kv::TokenSeq prompt;
  kv::TokenSeq full_seq;

  /** Total prompt tokens (== SeqLength(prompt)). */
  std::int64_t input_tokens = 0;

  /**
   * Tokens of the prompt that repeat earlier context (prior turns or a
   * shared system prompt) — the generator's ground truth, independent of
   * what a particular engine's cache manages to retain.
   */
  std::int64_t reused_tokens = 0;

  /** Output tokens the request generates. */
  std::int64_t output_tokens = 0;

  /**
   * Overload-control priority class. Defaults to standard so existing
   * traces and generators are unaffected.
   */
  SloClass slo_class = SloClass::kStandard;

  /** Prompt tokens that are new relative to the session history. */
  std::int64_t NewTokens() const { return input_tokens - reused_tokens; }
};

/** Aggregate length statistics, for calibration against paper Table 1. */
struct LengthStats {
  std::int64_t min = 0;
  double mean = 0.0;
  std::int64_t max = 0;
};

/** One generated workload trace. */
struct Trace {
  std::string name;
  std::vector<RequestSpec> requests;

  LengthStats InputStats() const;
  LengthStats OutputStats() const;
  LengthStats ReusedStats() const;

  /** Requests per second averaged over the whole trace. */
  double MeanRate() const;

  /** Duration from first to last arrival, seconds. */
  double SpanSeconds() const;

  /** Latest arrival time, seconds (0 for an empty trace); any order. */
  double LatestArrivalSeconds() const;

  /** Request counts per `bucket_seconds` bucket (Fig. 13 rate curve). */
  std::vector<double> RateCurve(double bucket_seconds) const;
};

}  // namespace muxwise::workload

#endif  // MUXWISE_WORKLOAD_REQUEST_SPEC_H_
