#include "core/audit.hpp"

namespace hni::core {

void InvariantAuditor::expect_eq(std::uint64_t lhs, std::uint64_t rhs,
                                 const std::string& check,
                                 const std::string& detail) {
  ++checks_;
  if (lhs == rhs) return;
  violations_.push_back(
      {check, detail + " (" + std::to_string(lhs) +
                  " != " + std::to_string(rhs) + ")"});
}

void InvariantAuditor::expect_le(std::uint64_t lhs, std::uint64_t rhs,
                                 const std::string& check,
                                 const std::string& detail) {
  ++checks_;
  if (lhs <= rhs) return;
  violations_.push_back(
      {check, detail + " (" + std::to_string(lhs) + " > " +
                  std::to_string(rhs) + ")"});
}

void InvariantAuditor::audit_station(Station& s) {
  const std::string who = s.name() + ": ";
  nic::RxPath& rx = s.nic().rx();
  nic::TxPath& tx = s.nic().tx();

  // Board container pool: every allocation is matched by a release or
  // is still in use. Abort/timeout/reset paths all release through the
  // same books, so a leak shows up here no matter which path leaked.
  expect_eq(rx.board().allocated(),
            rx.board().released() + rx.board().containers_in_use(),
            "board-pool conservation",
            who + "allocated == released + in_use");

  // RX FIFO: everything offered was accepted or dropped; everything
  // accepted was removed or is still resident. Priority-lane (OAM)
  // drops are a separate book — a lost alarm must not hide inside the
  // data-loss count, and it must not unbalance the conservation either.
  expect_eq(rx.cells_received(),
            rx.cells_hec_discarded() + rx.fifo().pushes() +
                rx.fifo().drops() + rx.fifo().priority_drops(),
            "rx-fifo offered conservation",
            who + "received == hec_discarded + accepted + dropped + "
                  "priority_dropped");
  expect_eq(rx.fifo().pushes(), rx.fifo().pops() + rx.fifo().size(),
            "rx-fifo resident conservation",
            who + "accepted == removed + resident");

  // RX engine: the only two consumers of the FIFO are normal service
  // and the reset flush.
  expect_eq(rx.fifo().pops(), rx.cells_serviced() + rx.cells_flushed(),
            "rx-engine service conservation",
            who + "removed == serviced + flushed");

  // TX FIFO: every built cell was accepted by the FIFO or dropped at
  // its mouth (control cells through the priority lane); accepted cells
  // were handed to the framer or are queued.
  expect_eq(tx.cells_built(),
            tx.fifo().pushes() + tx.fifo().drops() +
                tx.fifo().priority_drops(),
            "tx-fifo offered conservation",
            who + "built == accepted + dropped + priority_dropped");
  expect_eq(tx.fifo().pushes(), tx.fifo().pops() + tx.fifo().size(),
            "tx-fifo resident conservation",
            who + "accepted == removed + resident");

  audit_tx_line(tx.framer(), s.name());

  // OAM loopback books: every request sent either completed, was
  // abandoned when its VC closed, or is still outstanding. An entry
  // that survives its VC (the old tag-only table could not be swept)
  // unbalances this identity.
  expect_eq(s.nic().loopbacks_sent(),
            s.nic().loopbacks_completed() + s.nic().loopbacks_abandoned() +
                s.nic().loopbacks_outstanding(),
            "oam loopback conservation",
            who + "sent == completed + abandoned + outstanding");

  // RDI pause state is per *open* VC: close_vc clears the hold, so the
  // pending set can never outgrow the connections that exist.
  expect_le(s.nic().rdi_pending(), s.nic().open_vc_count(),
            "oam rdi-pending bound", who + "rdi_pending <= open VCs");

  // Continuity-check books: every declared loss-of-continuity alarm was
  // either cleared (by a later arrival, a superseding AIS, or stop_cc)
  // or still stands; and CC monitoring is per open VC.
  expect_eq(s.nic().cc_loss_declared(),
            s.nic().cc_loss_cleared() + s.nic().cc_loss_standing(),
            "oam cc alarm conservation",
            who + "loc declared == cleared + standing");
  expect_le(s.nic().cc_monitored(), s.nic().open_vc_count(),
            "oam cc monitored bound", who + "cc monitored <= open VCs");
}

void InvariantAuditor::audit_tx_line(const atm::TxFramer& framer,
                                     const std::string& name) {
  // The framer schedules events only for slots that carry a cell, so
  // queued cells must always have a wake armed. A producer that got
  // round TxFramer::bind()'s push hook would leave the line idle under
  // a non-empty FIFO, visible otherwise only as lost throughput.
  expect_eq(framer.stalled() ? 1 : 0, 0, "tx line stall",
            name + ": running framer with queued cells has a wake armed");
}

void InvariantAuditor::audit_hop(const End& from, const net::Link& link,
                                 const End& to) {
  const auto label = [](const End& end, const char* side) {
    return end.station != nullptr ? end.name
                                  : end.name + side + std::to_string(end.port);
  };
  const std::string who = label(from, ".out") + "->" + label(to, ".in") + ": ";

  // A station's framer forwards every cell it pops straight onto the
  // link; a switch counts a cell forwarded on a port as it commits the
  // cell to that port's output slot.
  expect_eq(from.station != nullptr
                ? from.station->nic().tx().fifo().pops()
                : from.sw->cells_forwarded_on(from.port),
            link.cells_in(), "hop emission conservation",
            who + "cells out == link cells in");

  // Cells the link accepted either died on it or arrived; a station's
  // receive count additionally includes alarm cells its RX PHY itself
  // inserted while the link was down.
  const std::uint64_t arrived =
      link.cells_in() - link.cells_lost() - link.cells_dropped_down();
  if (to.station == nullptr) {
    expect_eq(arrived, to.sw->cells_received_on(to.port),
              "hop delivery conservation",
              who + "sent - lost - down_dropped == received on port");
    return;
  }
  nic::Nic& rx = to.station->nic();
  expect_eq(arrived + rx.ais_inserted(), rx.rx().cells_received(),
            "hop delivery conservation",
            who + "sent - lost - down_dropped + ais == received");

  // Corruption accounting: the link applies its loss/down checks before
  // the bit flip, so every header-corrupted cell reaches the receiver;
  // and it flips at most one header bit per cell, so each such cell
  // must be either HEC-corrected or HEC-discarded — no third fate.
  expect_eq(rx.rx().cells_hec_corrected() + rx.rx().cells_hec_discarded(),
            link.cells_corrupted_header(), "hop corruption accounting",
            who + "hec_corrected + hec_discarded == header_corrupted");
}

void InvariantAuditor::audit_switch(const net::Switch& sw,
                                    const std::string& name) {
  const std::string who = name + ": ";

  // Receive stage: every cell that arrived was discarded by HEC, had no
  // route, died at the policer, or was offered to the queue stage —
  // which additionally holds the AIS cells the switch itself originated
  // for routes whose input link is down (they were never received).
  expect_eq(sw.cells_received() + sw.cells_ais_inserted(),
            sw.cells_hec_discarded() + sw.cells_unroutable() +
                sw.cells_policed_dropped() + sw.cells_queue_offered(),
            "switch receive conservation",
            who + "received + ais_inserted == hec + unroutable + policed "
                  "+ offered");

  // Queue stage: everything offered was forwarded, dropped by exactly
  // one discard mechanism, or is still resident in an output pool.
  expect_eq(sw.cells_queue_offered(),
            sw.cells_forwarded() + sw.cells_dropped_overflow() +
                sw.cells_dropped_vc_limit() + sw.cells_dropped_clp() +
                sw.cells_epd_dropped() + sw.cells_ppd_dropped() +
                sw.cells_wred_dropped() + sw.cells_queued(),
            "switch queue-stage conservation",
            who + "offered == forwarded + overflow + vc_limit + clp + "
                  "epd + ppd + wred + resident");

  // Color accounting: WRED's tagged-drop book is a subset of its total.
  expect_le(sw.cells_wred_dropped_clp(), sw.cells_wred_dropped(),
            "switch wred color bound", who + "wred_clp <= wred_total");

  // Meter color conservation: every cell a trTCM meter saw got exactly
  // one color.
  expect_eq(sw.cells_metered(),
            sw.cells_meter_green() + sw.cells_meter_yellow() +
                sw.cells_meter_red(),
            "switch meter color conservation",
            who + "metered == green + yellow + red");
  // Meter verdicts land in the UPC books: yellow tags, red drops.
  expect_le(sw.cells_meter_yellow(), sw.cells_policed_tagged(),
            "switch meter tag bound", who + "meter_yellow <= policed_tag");
  expect_le(sw.cells_meter_red(), sw.cells_policed_dropped(),
            "switch meter drop bound", who + "meter_red <= policed_drop");
  // Purged-on-close cells are a sub-book of the overflow drops they are
  // accounted under.
  expect_le(sw.cells_purged_on_close(), sw.cells_dropped_overflow(),
            "switch purge bound", who + "purged_on_close <= overflow");
}

std::string InvariantAuditor::report() const {
  if (violations_.empty()) {
    return "invariant audit: " + std::to_string(checks_) + " checks, ok\n";
  }
  std::string out = "invariant audit: " +
                    std::to_string(violations_.size()) + " of " +
                    std::to_string(checks_) + " checks FAILED\n";
  for (const auto& v : violations_) {
    out += "  FAIL " + v.check + ": " + v.detail + "\n";
  }
  return out;
}

}  // namespace hni::core
