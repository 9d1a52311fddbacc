// Implementation detail of run_experiment that tools driving a Network
// directly also need: the end-of-run ledger sweep.
#pragma once

#include <span>

#include "metrics/loss_ledger.hpp"
#include "scenario/node.hpp"

namespace rmacsim {

// End-of-run ledger sweep: reliable work still queued or in service when the
// clock stops is kEndOfRun, not a leak.
void sweep_pending_reliable(std::span<Node* const> nodes, LossLedger& ledger);

}  // namespace rmacsim
