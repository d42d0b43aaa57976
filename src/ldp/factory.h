// Construction of protocols by kind/name, used by the simulation
// harness and benchmark binaries.

#ifndef LDPR_LDP_FACTORY_H_
#define LDPR_LDP_FACTORY_H_

#include <memory>
#include <string>

#include "ldp/protocol.h"
#include "util/status.h"

namespace ldpr {

/// Creates a protocol of the given kind over domain size `d` with
/// privacy budget `epsilon` (OLH uses its default g).
std::unique_ptr<FrequencyProtocol> MakeProtocol(ProtocolKind kind, size_t d,
                                                double epsilon);

/// Parses "GRR" / "OUE" / "OLH" / "SUE" / "BLH" (case-insensitive).
StatusOr<ProtocolKind> ParseProtocolKind(const std::string& name);

/// The paper's three protocols, in the order its figures list them.
inline constexpr ProtocolKind kAllProtocolKinds[] = {
    ProtocolKind::kGrr, ProtocolKind::kOue, ProtocolKind::kOlh};

/// Every protocol the library implements (the paper's three plus the
/// SUE and BLH extensions).
inline constexpr ProtocolKind kExtendedProtocolKinds[] = {
    ProtocolKind::kGrr, ProtocolKind::kOue, ProtocolKind::kOlh,
    ProtocolKind::kSue, ProtocolKind::kBlh};

}  // namespace ldpr

#endif  // LDPR_LDP_FACTORY_H_
