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
//                            received == delivered + AIS inserted,
//                            and, into a station, every header-corrupted
//                            cell HEC-corrected or HEC-discarded
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

/// One end of a simplex wire hop: a station's NIC, or one port of a
/// switch (its output port when the end sends, its input port when it
/// receives).
struct End {
  Station* station = nullptr;  // set for a station end...
  net::Switch* sw = nullptr;   // ...else the switch and its port
  std::size_t port = 0;
  std::string name;            // station name or switch label, for reports
};

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

  /// Audits a simplex wire hop from -> link -> to. Only valid once the
  /// simulator has run dry: cells in flight are on nobody's books.
  void audit_hop(const End& from, const net::Link& link, const End& to);

  /// Audits a switch's receive and queue-stage conservation identities.
  /// Both hold at any instant (the switch counts a cell forwarded the
  /// moment the scheduler commits it to an output slot), but Testbed
  /// runs this alongside the quiescent hop audit.
  void audit_switch(const net::Switch& sw, const std::string& name);

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
