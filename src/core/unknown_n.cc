#include "core/unknown_n.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "core/output.h"
#include "util/audit.h"
#include "util/logging.h"
#include "util/serde.h"
#include "util/sort.h"

namespace mrl {

Result<UnknownNSketch> UnknownNSketch::Create(const UnknownNOptions& options) {
  UnknownNParams params;
  if (options.params.has_value()) {
    params = *options.params;
    if (params.b < 2 || params.k < 1 || params.h < 1) {
      return Status::InvalidArgument(
          "explicit params require b >= 2, k >= 1, h >= 1");
    }
  } else {
    Result<UnknownNParams> solved = SolveUnknownN(options.eps, options.delta);
    if (!solved.ok()) return solved.status();
    params = solved.value();
  }
  return UnknownNSketch(params, options);
}

UnknownNSketch::UnknownNSketch(const UnknownNParams& params,
                               const UnknownNOptions& options)
    : params_(params),
      framework_(params.b, params.k,
                 MakeCollapsePolicy(CollapsePolicyKind::kMrl)),
      sampler_(Random(options.seed), /*rate=*/1,
               options.ablation_first_of_block_sampling
                   ? BlockSampler::PickPolicy::kFirstOfBlock
                   : BlockSampler::PickPolicy::kUniformWithinBlock),
      buffer_allowance_(options.buffer_allowance),
      seed_(options.seed),
      ablation_first_of_block_(options.ablation_first_of_block_sampling) {
  if (options.ablation_disable_collapse_alternation) {
    framework_.SetOffsetAlternationEnabled(false);
  }
  if (buffer_allowance_) UpdateUsableBuffers();
}

void UnknownNSketch::Reset() { Reset(seed_); }

void UnknownNSketch::Reset(std::uint64_t seed) {
  seed_ = seed;
  framework_.Reset();
  sampler_ = BlockSampler(Random(seed), /*rate=*/1,
                          ablation_first_of_block_
                              ? BlockSampler::PickPolicy::kFirstOfBlock
                              : BlockSampler::PickPolicy::kUniformWithinBlock);
  count_ = 0;
  filling_ = false;
  fill_slot_ = 0;
  fill_weight_ = 1;
  fill_level_ = 0;
  if (buffer_allowance_) UpdateUsableBuffers();
}

void UnknownNSketch::UpdateUsableBuffers() {
  int allowed = buffer_allowance_(count_ + 1);
  if (allowed < 1) allowed = 1;
  if (allowed > params_.b) allowed = params_.b;
  if (allowed > framework_.usable_buffers() ||
      framework_.stats().leaves_created == 0) {
    framework_.SetUsableBuffers(allowed);
  }
}

std::pair<Weight, int> UnknownNSketch::NextNewRateAndLevel() const {
  const int max_level = framework_.max_level();
  if (max_level < params_.h) {
    return {Weight{1}, 0};
  }
  // Section 3.7: once the first buffer at level h+i exists (i >= 0), New
  // runs at rate 2^(i+1) and its buffers enter at level i+1.
  const int i = max_level - params_.h;
  MRL_CHECK_LT(i, 62) << "sampling rate would overflow";
  return {Weight{1} << (i + 1), i + 1};
}

void UnknownNSketch::StartNewFill() {
  MRL_CHECK(!filling_);
  if (buffer_allowance_) UpdateUsableBuffers();
  // Acquire first: a Collapse triggered here may raise the tree height,
  // which in turn determines this New's sampling rate and level.
  fill_slot_ = framework_.AcquireEmptySlot();
  auto [rate, level] = NextNewRateAndLevel();
  sampler_.SetRate(rate);
  fill_weight_ = rate;
  fill_level_ = level;
  framework_.buffer(fill_slot_).StartFill();
  filling_ = true;
  // New round complete: the rate/height coupling of §3.7 must hold now
  // that the rate has caught up with any collapse-driven tree growth.
  MRL_AUDIT(audit::CheckUnknownNHeight(framework_, params_.h,
                                       sampler_.rate()));
}

void UnknownNSketch::Add(Value v) {
  MRL_CHECK(!std::isnan(v)) << "NaN rejected at the sketch boundary: the "
                               "comparison-based buffers are undefined over "
                               "NaN (docs/algorithm.md §8)";
  if (!filling_) StartNewFill();
  std::optional<Value> sample = sampler_.Add(v);
  ++count_;
  if (!sample.has_value()) return;
  Buffer& buf = framework_.buffer(fill_slot_);
  buf.Append(*sample);
  if (buf.size() == buf.capacity()) {
    framework_.CommitFull(fill_slot_, fill_weight_, fill_level_);
    filling_ = false;
    MRL_AUDIT(audit::CheckWeightConservation(HeldWeight(), count_));
  }
}

void UnknownNSketch::AddBatch(std::span<const Value> values) {
  // NaN boundary contract: the release build traps every NaN that would
  // enter sketch state — sampled survivors (below) and the block candidate
  // left pending at return — without touching the elements the sampler
  // skips; audit builds scan the whole span here.
  MRL_AUDIT(audit::CheckNoNaN(values.data(), values.size()));
  while (!values.empty()) {
    if (!filling_) StartNewFill();
    Buffer& buf = framework_.buffer(fill_slot_);
    const std::uint64_t room = buf.capacity() - buf.size();
    const Weight rate = sampler_.rate();
    // Largest element count that keeps this buffer from overfilling: the
    // sampler emits floor((pending + t) / rate) survivors for t elements,
    // so t = room * rate - pending is the exact fill-to-capacity point.
    std::uint64_t take = values.size();
    if (room < std::numeric_limits<std::uint64_t>::max() / rate) {
      take = std::min<std::uint64_t>(
          take, room * rate - sampler_.pending_count());
    }  // else the fill point exceeds any real span; consume it whole
    batch_scratch_.clear();
    sampler_.AddBatch(values.data(), static_cast<std::size_t>(take),
                      batch_scratch_);
    count_ += take;
    for (Value s : batch_scratch_) {
      MRL_CHECK(!std::isnan(s))
          << "NaN rejected at the sketch boundary (sampled survivor)";
    }
    buf.AppendSpan(batch_scratch_.data(), batch_scratch_.size());
    if (buf.size() == buf.capacity()) {
      framework_.CommitFull(fill_slot_, fill_weight_, fill_level_);
      filling_ = false;
      MRL_AUDIT(audit::CheckWeightConservation(HeldWeight(), count_));
    }
    values = values.subspan(static_cast<std::size_t>(take));
  }
  if (sampler_.pending_count() > 0) {
    MRL_CHECK(!std::isnan(sampler_.pending_candidate()))
        << "NaN rejected at the sketch boundary (pending block candidate)";
  }
}

void UnknownNSketch::SnapshotInto(RunSnapshot* snap) const {
  snap->partial_sorted.clear();
  snap->tail.clear();
  if (filling_) {
    const Buffer& buf = framework_.buffer(fill_slot_);
    if (!buf.values().empty()) {
      snap->partial_sorted.assign(buf.values().begin(), buf.values().end());
      SortValues(snap->partial_sorted.data(), snap->partial_sorted.size());
    }
  }
  if (sampler_.pending_count() > 0) {
    snap->tail.push_back(sampler_.pending_candidate());
  }
  framework_.FullBufferRunsInto(&snap->runs);
  if (!snap->partial_sorted.empty()) {
    snap->runs.push_back(
        {snap->partial_sorted.data(), snap->partial_sorted.size(),
         fill_weight_});
  }
  if (!snap->tail.empty()) {
    // The candidate is a uniform pick from the pending_count() elements of
    // the open block; weighting it by that count keeps HeldWeight == count.
    snap->runs.push_back({snap->tail.data(), 1, sampler_.pending_count()});
  }
}

UnknownNSketch::RunSnapshot UnknownNSketch::Snapshot() const {
  RunSnapshot snap;
  SnapshotInto(&snap);
  return snap;
}

Result<Value> UnknownNSketch::Query(double phi) const {
  thread_local RunSnapshot snap;
  SnapshotInto(&snap);
  // Output round: everything consumed must be represented, exactly.
  MRL_AUDIT(audit::CheckWeightConservation(TotalRunWeight(snap.runs),
                                           count_));
  return WeightedQuantile(snap.runs, phi);
}

Result<std::vector<Value>> UnknownNSketch::QueryMany(
    const std::vector<double>& phis) const {
  thread_local RunSnapshot snap;
  SnapshotInto(&snap);
  MRL_AUDIT(audit::CheckWeightConservation(TotalRunWeight(snap.runs),
                                           count_));
  return WeightedQuantiles(snap.runs, phis);
}

Result<double> UnknownNSketch::RankOf(Value v) const {
  thread_local RunSnapshot snap;
  SnapshotInto(&snap);
  Result<Weight> rank = WeightedRankOf(snap.runs, v);
  if (!rank.ok()) return rank.status();
  return static_cast<double>(rank.value()) /
         static_cast<double>(TotalRunWeight(snap.runs));
}

QuantileSummary UnknownNSketch::ExportSummary() const {
  thread_local RunSnapshot snap;
  SnapshotInto(&snap);
  return QuantileSummary::FromRuns(snap.runs);
}

Weight UnknownNSketch::HeldWeight() const {
  thread_local RunSnapshot snap;
  SnapshotInto(&snap);
  return TotalRunWeight(snap.runs);
}

namespace {
constexpr std::uint32_t kCheckpointMagic = 0x4D524C51;  // "MRLQ"
// Version 2 added the sampler's pre-drawn pick offset (docs/checkpoint_format.md).
constexpr std::uint8_t kCheckpointVersion = 2;
constexpr std::uint8_t kKindUnknownN = 1;
}  // namespace

std::vector<std::uint8_t> UnknownNSketch::Serialize() const {
  BinaryWriter writer;
  writer.PutU32(kCheckpointMagic);
  writer.PutU8(kCheckpointVersion);
  writer.PutU8(kKindUnknownN);
  writer.PutI32(params_.b);
  writer.PutU64(params_.k);
  writer.PutI32(params_.h);
  writer.PutDouble(params_.alpha);
  writer.PutU64(params_.leaves_before_sampling);
  writer.PutU64(count_);
  writer.PutU8(filling_ ? 1 : 0);
  writer.PutU32(static_cast<std::uint32_t>(fill_slot_));
  writer.PutU64(fill_weight_);
  writer.PutI32(fill_level_);
  BlockSampler::State sampler = sampler_.SaveState();
  writer.PutU64(sampler.rng.state);
  writer.PutU64(sampler.rng.inc);
  writer.PutU64(sampler.rate);
  writer.PutU64(sampler.seen_in_block);
  writer.PutU64(sampler.pick_offset);
  writer.PutDouble(sampler.candidate);
  framework_.SerializeTo(&writer);
  return writer.Take();
}

Result<UnknownNSketch> UnknownNSketch::Deserialize(
    const std::vector<std::uint8_t>& bytes,
    std::function<int(std::uint64_t)> buffer_allowance) {
  BinaryReader reader(bytes);
  std::uint32_t magic;
  std::uint8_t version, kind;
  if (!reader.GetU32(&magic) || !reader.GetU8(&version) ||
      !reader.GetU8(&kind)) {
    return reader.status();
  }
  if (magic != kCheckpointMagic) {
    return Status::InvalidArgument("not an mrlquant checkpoint");
  }
  if (version != kCheckpointVersion || kind != kKindUnknownN) {
    return Status::InvalidArgument("unsupported checkpoint version or kind");
  }
  UnknownNParams params;
  std::uint64_t k;
  if (!reader.GetI32(&params.b) || !reader.GetU64(&k) ||
      !reader.GetI32(&params.h) || !reader.GetDouble(&params.alpha) ||
      !reader.GetU64(&params.leaves_before_sampling)) {
    return reader.status();
  }
  params.k = static_cast<std::size_t>(k);
  // Bound the pool we are willing to allocate for an (unauthenticated)
  // checkpoint before touching it: 2^28 elements = 2 GiB of doubles.
  if (params.b < 2 || params.b > 10000 || params.k < 1 || params.h < 1 ||
      params.MemoryElements() > (std::uint64_t{1} << 28)) {
    return Status::InvalidArgument("checkpoint parameters out of range");
  }
  std::uint64_t count;
  std::uint8_t filling;
  std::uint32_t fill_slot;
  std::uint64_t fill_weight;
  std::int32_t fill_level;
  BlockSampler::State sampler_state;
  if (!reader.GetU64(&count) || !reader.GetU8(&filling) ||
      !reader.GetU32(&fill_slot) || !reader.GetU64(&fill_weight) ||
      !reader.GetI32(&fill_level) || !reader.GetU64(&sampler_state.rng.state) ||
      !reader.GetU64(&sampler_state.rng.inc) ||
      !reader.GetU64(&sampler_state.rate) ||
      !reader.GetU64(&sampler_state.seen_in_block) ||
      !reader.GetU64(&sampler_state.pick_offset) ||
      !reader.GetDouble(&sampler_state.candidate)) {
    return reader.status();
  }
  if (sampler_state.rate < 1 ||
      sampler_state.seen_in_block >= sampler_state.rate ||
      sampler_state.pick_offset >= sampler_state.rate ||
      fill_slot >= static_cast<std::uint32_t>(params.b) ||
      (filling != 0 && fill_weight < 1)) {
    return Status::InvalidArgument("checkpoint sampler/fill state invalid");
  }

  UnknownNOptions restore_options;
  restore_options.buffer_allowance = std::move(buffer_allowance);
  UnknownNSketch sketch(params, restore_options);
  MRL_RETURN_IF_ERROR(sketch.framework_.DeserializeFrom(&reader));
  if (!reader.AtEnd()) {
    return reader.status().ok()
               ? Status::InvalidArgument("trailing bytes after checkpoint")
               : reader.status();
  }
  sketch.sampler_ = BlockSampler::FromState(sampler_state);
  sketch.count_ = count;
  sketch.filling_ = (filling != 0);
  sketch.fill_slot_ = fill_slot;
  sketch.fill_weight_ = fill_weight;
  sketch.fill_level_ = fill_level;
  // Cross-consistency: the filling flag must agree with the pool.
  const std::size_t num_filling =
      sketch.framework_.CountState(BufferState::kFilling);
  if (sketch.filling_) {
    if (num_filling != 1 ||
        sketch.framework_.buffer(sketch.fill_slot_).state() !=
            BufferState::kFilling) {
      return Status::InvalidArgument(
          "checkpoint fill slot inconsistent with pool");
    }
  } else if (num_filling != 0) {
    return Status::InvalidArgument("checkpoint has an orphan filling buffer");
  }
  // Checkpoint round: the restored sketch must satisfy the same invariants
  // as a live one. These run in every build mode (the input is untrusted),
  // via the same checkers the MRLQUANT_AUDIT hooks use, but reject with a
  // Status instead of aborting.
  Status conserved =
      audit::CheckWeightConservation(sketch.HeldWeight(), sketch.count_);
  if (!conserved.ok()) {
    return Status::InvalidArgument("checkpoint inconsistent: " +
                                   conserved.message());
  }
  Status height = audit::CheckUnknownNHeight(
      sketch.framework_, sketch.params_.h, sketch.sampler_.rate());
  if (!height.ok()) {
    return Status::InvalidArgument("checkpoint inconsistent: " +
                                   height.message());
  }
  return sketch;
}

Status UnknownNSketch::Restore(std::span<const std::uint8_t> bytes) {
  Result<UnknownNSketch> restored =
      Deserialize(std::vector<std::uint8_t>(bytes.begin(), bytes.end()));
  if (!restored.ok()) return restored.status();
  *this = std::move(restored).value();
  return Status::OK();
}

std::vector<ShippedBuffer> UnknownNSketch::FinishAndExport() {
  std::vector<ShippedBuffer> out;
  framework_.CollapseAllFull();
  for (int i = 0; i < framework_.num_buffers(); ++i) {
    const Buffer& buf = framework_.buffer(static_cast<std::size_t>(i));
    if (buf.state() == BufferState::kFull) {
      out.push_back({buf.values(), buf.weight(), /*full=*/true});
    }
  }
  if (filling_) {
    const Buffer& buf = framework_.buffer(fill_slot_);
    if (!buf.values().empty()) {
      out.push_back({buf.values(), fill_weight_, /*full=*/false});
    }
    filling_ = false;
  }
  if (sampler_.pending_count() > 0) {
    out.push_back({{sampler_.pending_candidate()},
                   sampler_.pending_count(),
                   /*full=*/false});
  }
  return out;
}

Status UnknownNSketch::ExportPartial(PartialSummary* out) const {
  out->params = params_;
  out->count = count_;
  out->buffers.clear();
  // Every full buffer travels at its own weight; the coordinator re-enters
  // them at level 0 (Section 6), so skipping the worker's final collapse
  // costs nothing but frame bytes — and keeps this const.
  for (int i = 0; i < framework_.num_buffers(); ++i) {
    const Buffer& buf = framework_.buffer(static_cast<std::size_t>(i));
    if (buf.state() == BufferState::kFull) {
      out->buffers.push_back({buf.values(), buf.weight(), /*full=*/true});
    }
  }
  if (filling_) {
    const Buffer& buf = framework_.buffer(fill_slot_);
    if (!buf.values().empty()) {
      out->buffers.push_back({buf.values(), fill_weight_,
                              buf.values().size() == params_.k});
    }
  }
  if (sampler_.pending_count() > 0) {
    // The candidate is a uniform pick from the open block's
    // pending_count() elements; that weight keeps exported weight == count.
    out->buffers.push_back({{sampler_.pending_candidate()},
                            sampler_.pending_count(),
                            /*full=*/params_.k == 1});
  }
  return Status::OK();
}

}  // namespace mrl
