#include "ldp/report_batch.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace ldpr {

namespace {

// Grows `v`'s capacity to at least `want` elements, at least doubling
// it: producers that append one report at a time (IPA crafting, the
// stream arrival generator) reserve before every append, and an exact
// reserve would copy the whole batch each time.
template <typename T>
void GrowCapacity(std::vector<T>& v, size_t want) {
  if (want > v.capacity()) v.reserve(std::max(want, 2 * v.capacity()));
}

}  // namespace

void ReportBatch::Append(const Report& report) {
  Builder out(*this);
  if (report.bits.empty()) return out.AddSeedValue(report.seed, report.value);
  out.SetBitsWidth(report.bits.size());
  std::copy(report.bits.begin(), report.bits.end(), out.AddBitsRow());
}

void ReportBatch::AppendFrom(const ReportBatch& src, size_t i) {
  LDPR_CHECK(is_builder());
  LDPR_CHECK(i < src.size_);
  const size_t width = src.bits_width_;
  if (width > 0) {
    if (size_ == 0 && bits_width_ == 0) {
      bits_width_ = width;
    } else {
      LDPR_CHECK(width == bits_width_);
    }
    const uint8_t* row = src.bits_row(i);
    bits_.insert(bits_.end(), row, row + width);
  } else {
    LDPR_CHECK(bits_width_ == 0);
  }
  seeds_.push_back(src.seeds()[i]);
  values_.push_back(src.values()[i]);
  ++size_;
}

void ReportBatch::Clear() {
  size_ = 0;
  bits_width_ = 0;
  seeds_view_ = nullptr;
  values_view_ = nullptr;
  bits_view_ = nullptr;
  seeds_.clear();
  values_.clear();
  bits_.clear();
}

void ReportBatch::Reserve(size_t n, size_t bits_width) {
  LDPR_CHECK(is_builder());
  GrowCapacity(seeds_, n);
  GrowCapacity(values_, n);
  if (bits_width > 0) GrowCapacity(bits_, n * bits_width);
}

const uint64_t* ReportBatch::seeds() const {
  return seeds_view_ != nullptr ? seeds_view_ : seeds_.data();
}

const uint32_t* ReportBatch::values() const {
  return values_view_ != nullptr ? values_view_ : values_.data();
}

const uint8_t* ReportBatch::bits() const {
  LDPR_CHECK(bits_width_ > 0);
  return bits_view_ != nullptr ? bits_view_ : bits_.data();
}

ReportBatch ReportBatch::Slice(size_t begin, size_t end) const {
  LDPR_CHECK(begin <= end && end <= size_);
  ReportBatch view;
  view.size_ = end - begin;
  view.bits_width_ = bits_width_;
  view.seeds_view_ = seeds() + begin;
  view.values_view_ = values() + begin;
  if (bits_width_ > 0) view.bits_view_ = bits() + begin * bits_width_;
  return view;
}

void ReportBatch::ExtractReport(size_t i, Report& out) const {
  LDPR_CHECK(i < size_);
  out.seed = seeds()[i];
  out.value = values()[i];
  out.bits.clear();
  if (bits_width_ > 0) out.bits.assign(bits_row(i), bits_row(i) + bits_width_);
}

ReportBatch::Builder::Builder(ReportBatch& batch) : batch_(&batch) {
  LDPR_CHECK(batch.is_builder());
}

ReportBatch::Builder::Builder(ReportBatch& batch, size_t chunk_reports,
                              Consumer consumer)
    : batch_(&batch),
      chunk_reports_(chunk_reports),
      consumer_(std::move(consumer)) {
  LDPR_CHECK(batch.is_builder() && batch.empty());
  LDPR_CHECK(chunk_reports >= 1 && consumer_ != nullptr);
}

void ReportBatch::Builder::Flush() {
  LDPR_CHECK(consumer_ != nullptr);
  if (batch_->empty()) return;
  consumer_(*batch_);
  const size_t width = batch_->bits_width_;
  batch_->Clear();
  batch_->bits_width_ = width;
}

void ReportBatch::Builder::SetBitsWidth(size_t width) {
  LDPR_CHECK(width > 0);
  if (batch_->size_ == 0 && batch_->bits_width_ == 0) {
    batch_->bits_width_ = width;
    // Bit rows for the report room reserved before the width was known.
    GrowCapacity(batch_->bits_, batch_->seeds_.capacity() * width);
  } else {
    LDPR_CHECK(width == batch_->bits_width_);
  }
}

void ReportBatch::Builder::Reserve(size_t n) {
  batch_->Reserve(std::min(batch_->size_ + n, chunk_reports_),
                  batch_->bits_width_);
}

void ReportBatch::Builder::AddValue(uint32_t value) { AddSeedValue(0, value); }

void ReportBatch::Builder::AddSeedValue(uint64_t seed, uint32_t value) {
  LDPR_CHECK(batch_->bits_width_ == 0);
  MakeRoom();
  batch_->seeds_.push_back(seed);
  batch_->values_.push_back(value);
  ++batch_->size_;
}

uint8_t* ReportBatch::Builder::AddBitsRow() {
  const size_t width = batch_->bits_width_;
  LDPR_CHECK(width > 0);
  MakeRoom();
  batch_->seeds_.push_back(0);
  batch_->values_.push_back(0);
  batch_->bits_.resize(batch_->bits_.size() + width);  // zero-filled
  ++batch_->size_;
  return batch_->bits_.data() + (batch_->size_ - 1) * width;
}

}  // namespace ldpr
