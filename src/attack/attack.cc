#include "attack/attack.h"

namespace ldpr {

std::vector<Report> Attack::Craft(const FrequencyProtocol& protocol, size_t m,
                                  Rng& rng) const {
  ReportBatch batch;
  ReportBatch::Builder builder(batch);
  CraftBatch(protocol, m, rng, builder);
  std::vector<Report> reports(batch.size());
  for (size_t i = 0; i < reports.size(); ++i) batch.ExtractReport(i, reports[i]);
  return reports;
}

}  // namespace ldpr
