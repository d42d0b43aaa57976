// Malicious frequency learning (Step 2 of LDPRecover, Section V-C).
//
// The server cannot observe the malicious frequencies f~_Y directly,
// but because crafted reports bypass perturbation while still passing
// through the aggregation algorithm Phi, the *expected summation* of
// malicious frequencies over the whole domain is a closed-form
// function of the protocol alone (Eq. (20)-(21)):
//
//     sum_v f~_Y(v)  =  (1 - q d) / (p - q),
//
// independent of the attacker-designed distribution P (which always
// sums to 1).  With partial knowledge of the attacker-selected item
// set T, the sum further splits across D' = D \ T (where P(v) = 0)
// and D'' = T (Eq. (28)-(29)).

#ifndef LDPR_RECOVER_MALICIOUS_STATS_H_
#define LDPR_RECOVER_MALICIOUS_STATS_H_

#include <cstddef>

#include "ldp/protocol.h"

namespace ldpr {

/// Eq. (21): the expected (and assumed) summation of malicious
/// frequencies over the full domain, (1 - q d) / (p - q).
///
/// This is the paper's one-hot support model: each crafted report is
/// treated as carrying exactly one encoded item.  It is exact for GRR
/// and for one-hot OUE crafting; for MGA-padded OUE or OLH the actual
/// crafted sum differs (see CraftedMaliciousFrequencySum), but the
/// model is what the server — ignorant of the attack — learns, and
/// the uniform-split recovery is insensitive to the absolute value
/// (a uniform offset cancels in the simplex refinement).
double ExpectedMaliciousFrequencySum(const FrequencyProtocol& protocol);

/// The *actual* expected malicious frequency sum of reports produced
/// by AppendCraftedReport(): (CraftedSupportBudget() - q d)/(p - q).
/// Coincides with Eq. (21) for GRR and OUE; for OLH it accounts for
/// hash-bucket collisions.  Exposed for analysis and tests.
double CraftedMaliciousFrequencySum(const FrequencyProtocol& protocol);

/// Eq. (28): the expected summation of malicious frequencies over a
/// sub-domain of `subdomain_size` items on which the attacker places
/// zero probability mass.
///
/// The mathematically exact value is -q * |D'| / (p - q): each of the
/// |D'| items contributes an expected estimate of (0 - q)/(p - q).
/// The paper's Eq. (28) literally writes -q*d/(p - q) (with the full
/// domain size d); pass `paper_literal` = true to reproduce that
/// variant.  The two differ by the small factor d/|D'| (the paper's
/// target sets satisfy |T| << d); docs/architecture.md ("The
/// subdomain-sum choice") records the discrepancy.
double ZeroMassSubdomainSum(const FrequencyProtocol& protocol,
                            size_t subdomain_size, bool paper_literal = false);

/// Eq. (29): the remaining malicious-frequency mass attributed to the
/// attacker-selected items, i.e. full-domain sum minus the zero-mass
/// sub-domain sum.
double TargetSubdomainSum(const FrequencyProtocol& protocol,
                          size_t non_target_count,
                          bool paper_literal = false);

}  // namespace ldpr

#endif  // LDPR_RECOVER_MALICIOUS_STATS_H_
