// Invariant auditor: conservation checks over the interface's books.
//
// Every resource the interface manages is double-entry accounted —
// containers allocated vs released, cells pushed vs popped, cells sent
// vs received-plus-lost. Fault injection exercises exactly the paths
// where such books historically go wrong (abort paths, retries, resets
// that forget to return a buffer), so the auditor re-derives each
// identity from independent counters and reports any imbalance:
//
//   * board container pool:  allocated == released + in_use
//   * cell FIFOs:            offered == accepted + dropped,
//                            accepted == removed + resident
//   * RX engine:             removed == serviced + flushed
//   * TX line:               a running framer with queued cells has a
//                            wake armed (an event-driven framer that
//                            misses a wake would only lose throughput)
//   * wire hop (quiescent):  sent == delivered + lost + dropped-down,
//                            received == delivered + AIS inserted
//
// Station identities hold at *any* instant (counters update together);
// hop identities only once the simulator has run dry (cells in flight
// are on nobody's books). core::Testbed runs the station audits at
// teardown and warns on stderr; tests call audit() and assert ok().

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "atm/phy.hpp"
#include "core/station.hpp"
#include "net/link.hpp"
#include "net/switch.hpp"

namespace hni::core {

class InvariantAuditor {
 public:
  struct Violation {
    std::string check;   // which identity failed
    std::string detail;  // the numbers that disagree
  };

  /// Records an equality check; a mismatch becomes a violation.
  void expect_eq(std::uint64_t lhs, std::uint64_t rhs,
                 const std::string& check, const std::string& detail);

  /// Records an upper-bound check (lhs <= rhs); an excess becomes a
  /// violation. For books that bound rather than balance — e.g. paused
  /// VCs can never outnumber open VCs.
  void expect_le(std::uint64_t lhs, std::uint64_t rhs,
                 const std::string& check, const std::string& detail);

  /// Audits one station's always-true identities (valid at any time).
  void audit_station(Station& s);

  /// Audits that a transmit line is not stalled: a running framer with
  /// cells queued has a wake armed (valid at any time; audit_station
  /// runs it on the station's NIC).
  void audit_tx_line(const atm::TxFramer& framer, const std::string& name);

  /// Audits a simplex wire hop tx -> link -> rx. Only valid once the
  /// simulator has run dry: cells in flight are on nobody's books.
  void audit_hop(Station& tx, const net::Link& link, Station& rx);

  /// Audits a switch's receive and queue-stage conservation identities.
  /// Both hold at any instant (the switch counts a cell forwarded the
  /// moment the scheduler commits it to an output slot), but Testbed
  /// runs this alongside the quiescent hop audit.
  void audit_switch(const net::Switch& sw, const std::string& name);

  // Per-hop fabric audits (quiescent only, like audit_hop): every link
  // of a multi-hop path balances against the per-port books of the
  // switch on each side.
  /// station TX -> link -> switch input port.
  void audit_ingress_hop(Station& tx, const net::Link& link,
                         const net::Switch& sw, std::size_t port,
                         const std::string& sw_name);
  /// switch output port -> trunk link -> switch input port.
  void audit_trunk_hop(const net::Switch& tx, std::size_t tx_port,
                       const net::Link& link, const net::Switch& rx,
                       std::size_t rx_port, const std::string& tx_name,
                       const std::string& rx_name);
  /// switch output port -> link -> station RX.
  void audit_egress_hop(const net::Switch& sw, std::size_t port,
                        const net::Link& link, Station& rx,
                        const std::string& sw_name);

  bool ok() const { return violations_.empty(); }
  std::size_t checks_run() const { return checks_; }
  const std::vector<Violation>& violations() const { return violations_; }

  /// Human-readable verdict, one line per violation.
  std::string report() const;

 private:
  std::vector<Violation> violations_;
  std::size_t checks_ = 0;
};

}  // namespace hni::core
