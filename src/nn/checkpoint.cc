#include "nn/checkpoint.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <utility>
#include <vector>

#include "common/durable_file.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/telemetry.h"
#include "common/trace.h"

namespace fairwos::nn {
namespace {

using common::AppendF32;
using common::AppendF64;
using common::AppendFloats;
using common::AppendU64;
using common::kTrainStateCheckpointVersion;

constexpr char kRotationPrefix[] = "state-";
constexpr char kRotationSuffix[] = ".fwck";

/// Parses the rotation sequence number out of a `state-<seq>.fwck`
/// filename; returns -1 for anything else.
int64_t ParseRotationSeq(const std::string& filename) {
  const size_t prefix_len = sizeof(kRotationPrefix) - 1;
  const size_t suffix_len = sizeof(kRotationSuffix) - 1;
  if (filename.size() <= prefix_len + suffix_len ||
      filename.compare(0, prefix_len, kRotationPrefix) != 0 ||
      filename.compare(filename.size() - suffix_len, suffix_len,
                       kRotationSuffix) != 0) {
    return -1;
  }
  int64_t seq = 0;
  for (size_t i = prefix_len; i < filename.size() - suffix_len; ++i) {
    if (filename[i] < '0' || filename[i] > '9') return -1;
    seq = seq * 10 + (filename[i] - '0');
  }
  return seq;
}

}  // namespace

common::Status CheckParamsCompatible(
    const std::vector<tensor::Tensor>& params,
    const std::vector<std::vector<float>>& saved, const char* what) {
  if (saved.size() != params.size()) {
    return common::Status::FailedPrecondition(
        std::string("checkpoint ") + what + " holds " +
        std::to_string(saved.size()) + " tensors, model has " +
        std::to_string(params.size()));
  }
  for (size_t i = 0; i < saved.size(); ++i) {
    if (saved[i].size() != params[i].data().size()) {
      return common::Status::FailedPrecondition(
          std::string("checkpoint ") + what + " tensor " + std::to_string(i) +
          " has " + std::to_string(saved[i].size()) + " values, model wants " +
          std::to_string(params[i].data().size()));
    }
  }
  return common::Status::OK();
}

common::Status SaveTrainState(const std::string& path,
                              const TrainState& state) {
  FW_TRACE_SPAN("checkpoint/save_train_state");
  FW_CHECK_EQ(state.optimizer.moment1.size(), state.optimizer.moment2.size());
  std::string payload;
  AppendU64(&payload, static_cast<uint64_t>(state.phase));
  AppendU64(&payload, static_cast<uint64_t>(state.epoch));
  for (uint64_t w : state.rng.words) AppendU64(&payload, w);
  AppendU64(&payload, state.rng.has_cached_normal ? 1 : 0);
  AppendF64(&payload, state.rng.cached_normal);
  AppendF32(&payload, state.optimizer.lr);
  AppendF32(&payload, state.optimizer.max_grad_norm);
  AppendU64(&payload, static_cast<uint64_t>(state.optimizer.step_count));
  AppendU64(&payload, state.optimizer.moment1.size());
  for (size_t i = 0; i < state.optimizer.moment1.size(); ++i) {
    FW_CHECK_EQ(state.optimizer.moment1[i].size(),
                state.optimizer.moment2[i].size());
    AppendU64(&payload, state.optimizer.moment1[i].size());
    AppendFloats(&payload, state.optimizer.moment1[i]);
    AppendFloats(&payload, state.optimizer.moment2[i]);
  }
  for (const auto* section : {&state.params, &state.blobs}) {
    AppendU64(&payload, section->size());
    for (const auto& v : *section) {
      AppendU64(&payload, v.size());
      AppendFloats(&payload, v);
    }
  }
  AppendU64(&payload, state.scalars.size());
  for (double s : state.scalars) AppendF64(&payload, s);
  AppendU64(&payload, state.counters.size());
  for (int64_t c : state.counters) {
    AppendU64(&payload, static_cast<uint64_t>(c));
  }
  return common::WriteCheckpointEnvelope(path, kTrainStateCheckpointVersion,
                                         std::move(payload));
}

common::Status LoadTrainState(const std::string& path, TrainState* state) {
  FW_CHECK(state != nullptr);
  std::string payload;
  FW_RETURN_IF_ERROR(common::ReadCheckpointEnvelope(
      path, kTrainStateCheckpointVersion, &payload));

  const auto malformed = [&path](const std::string& what) {
    return common::Status::IoError("payload ends inside " + what + ": " + path);
  };
  common::PayloadReader reader(payload);
  TrainState staged;
  uint64_t u = 0;
  if (!reader.ReadU64(&u)) return malformed("phase");
  staged.phase = static_cast<int64_t>(u);
  if (!reader.ReadU64(&u)) return malformed("epoch");
  staged.epoch = static_cast<int64_t>(u);
  for (auto& w : staged.rng.words) {
    if (!reader.ReadU64(&w)) return malformed("rng state");
  }
  if (!reader.ReadU64(&u)) return malformed("rng state");
  staged.rng.has_cached_normal = u != 0;
  if (!reader.ReadF64(&staged.rng.cached_normal)) return malformed("rng state");
  if (!reader.ReadF32(&staged.optimizer.lr) ||
      !reader.ReadF32(&staged.optimizer.max_grad_norm) ||
      !reader.ReadU64(&u)) {
    return malformed("optimizer state");
  }
  staged.optimizer.step_count = static_cast<int64_t>(u);
  uint64_t slots = 0;
  if (!reader.ReadU64(&slots)) return malformed("optimizer state");
  // The slot count is bounded by the payload itself (each slot costs at
  // least one u64), so a corrupt count cannot drive a huge reserve.
  if (slots > reader.remaining() / sizeof(uint64_t)) {
    return malformed("optimizer moments");
  }
  staged.optimizer.moment1.resize(slots);
  staged.optimizer.moment2.resize(slots);
  for (uint64_t i = 0; i < slots; ++i) {
    uint64_t n = 0;
    if (!reader.ReadU64(&n)) return malformed("optimizer moments");
    if (reader.remaining() / sizeof(float) < 2 * n) {
      return malformed("optimizer moments");
    }
    staged.optimizer.moment1[i].resize(n);
    staged.optimizer.moment2[i].resize(n);
    if (!reader.ReadFloats(&staged.optimizer.moment1[i]) ||
        !reader.ReadFloats(&staged.optimizer.moment2[i])) {
      return malformed("optimizer moments");
    }
  }
  for (auto* section : {&staged.params, &staged.blobs}) {
    uint64_t count = 0;
    if (!reader.ReadU64(&count)) return malformed("tensor section");
    if (count > reader.remaining() / sizeof(uint64_t)) {
      return malformed("tensor section");
    }
    section->resize(count);
    for (auto& v : *section) {
      if (!reader.ReadSizedFloats(&v)) return malformed("tensor section");
    }
  }
  uint64_t count = 0;
  if (!reader.ReadU64(&count)) return malformed("scalars");
  if (count > reader.remaining() / sizeof(double)) return malformed("scalars");
  staged.scalars.resize(count);
  for (auto& s : staged.scalars) {
    if (!reader.ReadF64(&s)) return malformed("scalars");
  }
  if (!reader.ReadU64(&count)) return malformed("counters");
  if (count > reader.remaining() / sizeof(uint64_t)) {
    return malformed("counters");
  }
  staged.counters.resize(count);
  for (auto& c : staged.counters) {
    if (!reader.ReadU64(&u)) return malformed("counters");
    c = static_cast<int64_t>(u);
  }
  if (!reader.exhausted()) {
    return common::Status::IoError("payload has trailing bytes: " + path);
  }
  *state = std::move(staged);
  return common::Status::OK();
}

CheckpointRotation::CheckpointRotation(std::string dir, int64_t keep)
    : dir_(std::move(dir)), keep_(keep) {
  FW_CHECK(!dir_.empty());
  FW_CHECK_GE(keep_, 1);
}

std::vector<std::string> CheckpointRotation::ListCheckpoints(
    const std::string& dir) {
  std::vector<std::pair<int64_t, std::string>> found;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const int64_t seq = ParseRotationSeq(entry.path().filename().string());
    if (seq >= 0) found.emplace_back(seq, entry.path().string());
  }
  std::sort(found.begin(), found.end());
  std::vector<std::string> paths;
  paths.reserve(found.size());
  for (auto& [seq, path] : found) paths.push_back(std::move(path));
  return paths;
}

common::Status CheckpointRotation::Save(const TrainState& state) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    return common::Status::IoError("cannot create checkpoint dir " + dir_ +
                                   ": " + ec.message());
  }
  if (next_seq_ < 0) {
    next_seq_ = 0;
    for (const auto& path : ListCheckpoints(dir_)) {
      const int64_t seq =
          ParseRotationSeq(std::filesystem::path(path).filename().string());
      if (seq >= next_seq_) next_seq_ = seq + 1;
    }
  }
  const std::string path =
      dir_ + "/" + kRotationPrefix +
      common::StrFormat("%06lld", static_cast<long long>(next_seq_)) +
      kRotationSuffix;
  FW_RETURN_IF_ERROR(SaveTrainState(path, state));
  ++next_seq_;
  auto existing = ListCheckpoints(dir_);
  for (size_t i = 0;
       i + static_cast<size_t>(keep_) < existing.size(); ++i) {
    std::filesystem::remove(existing[i], ec);  // best-effort prune
  }
  return common::Status::OK();
}

common::Result<TrainState> CheckpointRotation::LoadLatestValid() {
  auto files = ListCheckpoints(dir_);
  for (auto it = files.rbegin(); it != files.rend(); ++it) {
    TrainState state;
    const common::Status status = LoadTrainState(*it, &state);
    if (status.ok()) {
      last_loaded_path_ = *it;
      return state;
    }
    // A torn or corrupt newer checkpoint is exactly what the rotation is
    // for: fall back to the previous slot, loudly.
    FW_LOG(Warning) << "checkpoint " << *it
                    << " is unusable, falling back to the previous slot: "
                    << status.ToString();
    obs::MetricsRegistry::Global().GetCounter("resume.fallbacks")->Increment();
    obs::EmitEvent(obs::Event("resume_fallback")
                       .Set("path", *it)
                       .Set("reason", status.ToString()));
  }
  return common::Status::NotFound("no valid checkpoint in " + dir_);
}

}  // namespace fairwos::nn
