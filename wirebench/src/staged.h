// The staged replay of the traced run: one thread calls the serving
// path's layers in pipeline order on the workload's own reports —
// net::decode_report, feedback::unpack_report, dataset::fill_features,
// nn::InferenceContext::run, Authenticator::classify_batch_into,
// SessionTable::record — each call one child span of a root span per
// batch, so each layer's cost per report is measured in isolation.
#pragma once

#include <cstddef>
#include <cstdint>

#include "harness.h"

namespace wirebench {

// Microseconds per report at one batch size (median over batches).
struct StagedCosts {
  std::size_t batch = 0;
  std::size_t reports = 0;
  double decode_us = 0.0;
  double unpack_us = 0.0;
  double features_us = 0.0;
  double forward_us = 0.0;
  double classify_us = 0.0;
  double record_us = 0.0;
};

struct StagedResult {
  StagedCosts b64;    // full batches
  StagedCosts small;  // the light phase's mean batch
  StagedCosts live;   // the busy phase's mean batch
  std::uint64_t wrong_predictions = 0;
};

StagedResult run_staged(const Workload& w, const StreamPlan& plan,
                        const Artifact& artifact,
                        const deepcsi::core::Authenticator& auth,
                        std::size_t small_batch, std::size_t live_batch,
                        SpanLog& spans);

}  // namespace wirebench
