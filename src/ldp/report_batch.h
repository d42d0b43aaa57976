// ReportBatch: a batch of many reports in SoA layout — the one report
// representation every generation, crafting, aggregation, Detection
// and k-means path runs on.
//
// Each protocol implements its report operations once, over whole
// batches: FrequencyProtocol::AppendGenuineReports and
// AppendCraftedReport write reports in place, and
// AccumulateSupportsBatch folds a batch through one specialized loop
// (value histogram for GRR, per-column bit sums for the unary family,
// item-block x report-block tiles for local hashing).
//
// Two modes:
//
//  * Builder mode.  A ReportBatch::Builder writes straight into the
//    SoA field arrays (seeds[], values[], packed bit rows): protocol
//    generation (FrequencyProtocol::AppendGenuineReports) and attack
//    crafting (Attack::CraftBatch) produce reports here without a
//    per-user Report ever materializing.
//  * View mode.  Slice() of a builder batch: borrowed pointers into
//    the parent's SoA arrays (the unit the sharded aggregator hands
//    each worker).  Appending to the parent invalidates slices.
//
// A Builder may also flush: it hands its batch to a consumer every
// chunk of reports and clears it, so a producer of m reports never
// holds more than one chunk (a trial's crafted reports stream this
// way, sim/pipeline.h).
//
// Determinism: support counts are sums of 1.0's, exactly
// representable integers far below 2^53, so *any* regrouping of the
// additions yields byte-identical doubles.  Every batched kernel
// exploits exactly this — accumulate integer subtotals, add each
// subtotal once — and therefore matches the per-report test oracle
// (tests/report_oracle.h) bit for bit (enforced by
// tests/aggregation_batch_test.cc and tests/report_gen_batch_test.cc).
//
// A builder-mode batch is homogeneous: either every appended report
// carries a bit row of the same width or none does (checked on
// append).

#ifndef LDPR_LDP_REPORT_BATCH_H_
#define LDPR_LDP_REPORT_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "ldp/report.h"

namespace ldpr {

class ReportBatch {
 public:
  class Builder;

  /// An empty builder-mode batch.
  ReportBatch() = default;

  /// Builder mode: appends one materialized Report.  An adapter for
  /// the AoS fig9 replay in perf/src/replay.cc; delete with it.
  void Append(const Report& report);

  /// Row-copies report i of `src` (builder or view mode) into this
  /// builder-mode batch — the gather step of the Detection survivor
  /// buffers and the k-means subset tiles.
  void AppendFrom(const ReportBatch& src, size_t i);

  /// Drops all reports (and any slice view) but keeps allocated
  /// capacity — lets a streaming producer reuse one batch as a flush
  /// buffer.
  void Clear();

  /// Pre-allocates builder-mode room for `n` reports whose bit rows
  /// are `bits_width` wide (0 for bit-less encodings).  Capacity at
  /// least doubles whenever it grows, so producers may reserve before
  /// every single-report append at amortized O(1) cost.
  void Reserve(size_t n, size_t bits_width);

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Width of each bit row; 0 when the reports carry no bits.
  size_t bits_width() const { return bits_width_; }

  /// SoA field arrays, each of length size().
  const uint64_t* seeds() const;
  const uint32_t* values() const;

  /// Base of the packed row-major bit matrix (size() x bits_width()
  /// bytes).  bits_width() > 0 only.
  const uint8_t* bits() const;

  /// Row i of the packed bit matrix (bits_width() bytes).
  const uint8_t* bits_row(size_t i) const { return bits() + i * bits_width_; }

  /// View mode: a borrowed sub-range [begin, end) of this builder- or
  /// view-mode batch's SoA arrays.  O(1), no copy.  The parent must
  /// outlive the slice and must not be appended to while slices are
  /// live.
  ReportBatch Slice(size_t begin, size_t end) const;

  /// Reconstructs report i into `out`, reusing out.bits storage.  An
  /// adapter for the AoS fig9 replay in perf/src/replay.cc; delete
  /// with it.
  void ExtractReport(size_t i, Report& out) const;

 private:
  bool is_builder() const { return seeds_view_ == nullptr; }

  size_t size_ = 0;
  size_t bits_width_ = 0;  // fixed by the first bit-carrying report
  // View mode: borrowed SoA pointers into a parent batch.
  const uint64_t* seeds_view_ = nullptr;
  const uint32_t* values_view_ = nullptr;
  const uint8_t* bits_view_ = nullptr;
  // Builder-mode storage.
  std::vector<uint64_t> seeds_;
  std::vector<uint32_t> values_;
  std::vector<uint8_t> bits_;  // row-major, size_ x bits_width_
};

/// Writes reports straight into a builder-mode ReportBatch's SoA
/// arrays.  The generation hot path: protocols append a value, a
/// (seed, value) pair, or a zeroed bit row they then fill in place —
/// no per-user Report object exists anywhere on the path.
class ReportBatch::Builder {
 public:
  /// Receives each chunk of a flushing builder.
  using Consumer = std::function<void(const ReportBatch&)>;

  /// Wraps `batch`, which must be in builder mode (possibly
  /// non-empty: crafting appends after genuine generation).
  explicit Builder(ReportBatch& batch);

  /// Flushing mode: wraps the empty builder-mode `batch` and, before
  /// an append that would take it past `chunk_reports` reports, hands
  /// it to `consumer` and clears it, keeping its capacity and bit-row
  /// width.  Flush() hands over what is left.  The chunks, joined in
  /// order, are the reports a plain builder would hold; the consumer
  /// sees each chunk once, before it is cleared.
  Builder(ReportBatch& batch, size_t chunk_reports, Consumer consumer);

  /// Flushing mode: hands the reports appended since the last chunk
  /// to the consumer (if there are any) and clears the batch.
  void Flush();

  /// Fixes the bit-row width before the first AddBitsRow (idempotent;
  /// must agree with any width the batch already has).  On an empty
  /// batch it also reserves bit rows for every report Reserve() made
  /// room for, so callers may reserve before the width is known.
  void SetBitsWidth(size_t width);

  /// Pre-allocates room for `n` more reports (bit rows too once the
  /// width is set); a flushing builder reserves at most one chunk.
  void Reserve(size_t n);

  /// Appends a value-only report (GRR).  seed is 0.
  void AddValue(uint32_t value);

  /// Appends a (seed, value) report (OLH/BLH).
  void AddSeedValue(uint64_t seed, uint32_t value);

  /// Appends a bit-row report (OUE/SUE) and returns its zeroed row of
  /// SetBitsWidth() bytes for the caller to fill in place.  The
  /// pointer is invalidated by the next append.
  uint8_t* AddBitsRow();

  /// Reports in the batch: since the last flush, in flushing mode.
  size_t size() const { return batch_->size_; }
  const ReportBatch& batch() const { return *batch_; }

 private:
  // Flushes a full chunk before an append.
  void MakeRoom() {
    if (batch_->size_ == chunk_reports_) Flush();
  }

  ReportBatch* batch_;
  size_t chunk_reports_ = std::numeric_limits<size_t>::max();
  Consumer consumer_;  // empty unless flushing
};

}  // namespace ldpr

#endif  // LDPR_LDP_REPORT_BATCH_H_
