#include "sim/channel.h"

#include <algorithm>
#include <utility>

#include "sim/backoff.h"
#include "sim/logging.h"

namespace muxwise::sim {

Channel::Channel(Simulator* simulator, std::string name,
                 double bandwidth_bytes_per_s, Duration latency)
    : sim_(simulator),
      name_(std::move(name)),
      bandwidth_(bandwidth_bytes_per_s),
      latency_(latency) {
  MUX_CHECK(sim_ != nullptr);
  MUX_CHECK(bandwidth_ > 0.0);
}

void Channel::EnableFaults(FaultModel model, Rng rng) {
  MUX_CHECK(model.failure_probability >= 0.0 &&
            model.failure_probability < 1.0);
  MUX_CHECK(model.max_attempts >= 1);
  MUX_CHECK(model.initial_backoff >= 0);
  fault_model_ = model;
  fault_rng_.emplace(std::move(rng));
}

void Channel::SetFailureProbability(double p) {
  MUX_CHECK(p >= 0.0 && p < 1.0);
  MUX_CHECK(fault_rng_.has_value());
  fault_model_.failure_probability = p;
}

void Channel::SetBandwidthScale(double scale) {
  MUX_CHECK(scale > 0.0 && scale <= 1.0);
  bandwidth_scale_ = scale;
}

void Channel::Transfer(double bytes, std::function<void()> done,
                       std::function<void()> failed) {
  MUX_CHECK(bytes >= 0.0);
  StartAttempt(bytes, 1, std::move(done), std::move(failed));
}

void Channel::StartAttempt(double bytes, int attempt,
                           std::function<void()> done,
                           std::function<void()> failed) {
  const Duration wire_time = latency_ + static_cast<Duration>(
      bytes / (bandwidth_ * bandwidth_scale_) * 1e9);
  // Clamp: a link that has been idle since free_at_ passed must not make
  // the next transfer inherit that stale serialization point.
  free_at_ = std::max(free_at_, sim_->Now()) + wire_time;
  // Draw per-attempt loss up front (deterministic given the seeded
  // stream); an unarmed or zero-probability link consumes no randomness
  // and takes the exact same single-event path as before faults existed.
  // A flapped-down link loses the attempt without drawing, so the armed
  // stream's draw sequence is identical with and without the flap.
  const bool lost = !link_up_ ||
                    (fault_rng_.has_value() &&
                     fault_model_.failure_probability > 0.0 &&
                     fault_rng_->Bernoulli(fault_model_.failure_probability));
  if (!lost) {
    auto finish = [this, bytes, done = std::move(done)] {
      bytes_transferred_ += bytes;
      ++transfers_completed_;
      if (done) done();
    };
    sim_->ScheduleAt(free_at_, std::move(finish));
    return;
  }
  // The attempt occupied the wire for its full duration before being
  // detected as lost (worst-case model: corruption found at the CRC on
  // the far side), then the caller backs off before retrying.
  if (attempt >= fault_model_.max_attempts) {
    auto give_up = [this, failed = std::move(failed)] {
      ++attempts_failed_;
      ++transfers_failed_;
      if (failed) failed();
    };
    sim_->ScheduleAt(free_at_, std::move(give_up));
    return;
  }
  const Duration backoff = BackoffDelay(
      ExponentialBackoff{fault_model_.initial_backoff, 2.0, kTimeNever},
      attempt);
  auto retry = [this, bytes, attempt, done = std::move(done),
                failed = std::move(failed)]() mutable {
    ++attempts_failed_;
    StartAttempt(bytes, attempt + 1, std::move(done), std::move(failed));
  };
  sim_->ScheduleAt(free_at_ + backoff, std::move(retry));
}

}  // namespace muxwise::sim
