// Property-based tests: randomized inputs, invariant checks.
//
// Each suite is parameterized over seeds (TEST_P), so every run covers
// many independent random universes deterministically. The invariants
// are the ones the whole library leans on:
//
//   * integrity  — nothing corrupted is ever *delivered*: a reassembler
//     either hands back exactly what was segmented or flags an error;
//   * conservation — cells and bytes are all accounted for: every cell
//     in equals cells discarded + dropped + consumed; host pages return
//     to the baseline once traffic drains;
//   * conformance — a stream accepted by a GCRA policer is a stream the
//     same GCRA accepts when replayed; TX-shaped streams always conform.

#include <gtest/gtest.h>

#include <algorithm>

#include "atm/gcra.hpp"
#include "core/testbed.hpp"
#include "sim/random.hpp"

namespace hni {
namespace {

class Seeded : public ::testing::TestWithParam<std::uint64_t> {};

// --- AAL5 cell-stream fuzz --------------------------------------------

TEST_P(Seeded, Aal5NeverDeliversCorruptedData) {
  sim::Rng rng(GetParam());
  const atm::VcId vc{0, 4};
  // Build a library of PDUs and remember their exact bytes.
  std::vector<aal::Bytes> sent;
  std::vector<atm::Cell> stream;
  for (int i = 0; i < 20; ++i) {
    const std::size_t n = 1 + rng.uniform_int(0, 4000);
    sent.push_back(aal::make_pattern(n, GetParam() * 100 + i));
    for (auto& c : aal::aal5_segment(sent.back(), vc)) {
      stream.push_back(std::move(c));
    }
  }
  // Mutate the stream: random drops, duplicates, payload corruption.
  std::vector<atm::Cell> mutated;
  for (const auto& c : stream) {
    const double dice = rng.uniform();
    if (dice < 0.05) continue;  // drop
    atm::Cell copy = c;
    if (dice < 0.10) {
      copy.payload[rng.uniform_int(0, 47)] ^=
          static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
    }
    mutated.push_back(copy);
    if (dice > 0.97) mutated.push_back(copy);  // duplicate
  }

  aal::Aal5Reassembler rx;
  std::size_t ok = 0, errored = 0;
  for (const auto& c : mutated) {
    if (auto d = rx.push(c)) {
      if (d->error == aal::ReassemblyError::kNone) {
        ++ok;
        // Integrity: anything delivered clean must be a sent PDU.
        EXPECT_NE(std::ranges::find(sent, d->sdu), sent.end())
            << "seed " << GetParam();
      } else {
        ++errored;
      }
    }
  }
  EXPECT_EQ(rx.pdus_ok(), ok);
  EXPECT_EQ(rx.pdus_errored(), errored);
  EXPECT_LE(ok, sent.size() + 2);  // duplicates may re-deliver a PDU
}

TEST_P(Seeded, Aal34NeverDeliversCorruptedData) {
  sim::Rng rng(GetParam() ^ 0xA34);
  const atm::VcId vc{0, 4};
  std::vector<aal::Bytes> sent;
  std::vector<atm::Cell> stream;
  // Two interleaved MID streams.
  aal::Aal34Segmenter seg_a(vc, 1);
  aal::Aal34Segmenter seg_b(vc, 2);
  std::vector<atm::Cell> sa, sb;
  for (int i = 0; i < 10; ++i) {
    const std::size_t n = 1 + rng.uniform_int(0, 3000);
    sent.push_back(aal::make_pattern(n, GetParam() * 50 + i));
    auto cells = (i % 2 ? seg_a : seg_b).segment(sent.back());
    auto& dst = (i % 2 ? sa : sb);
    dst.insert(dst.end(), cells.begin(), cells.end());
  }
  // Random-interleave the two MID streams, then mutate.
  std::size_t ia = 0, ib = 0;
  while (ia < sa.size() || ib < sb.size()) {
    const bool from_a =
        ib >= sb.size() || (ia < sa.size() && rng.chance(0.5));
    stream.push_back(from_a ? sa[ia++] : sb[ib++]);
  }
  aal::Aal34Reassembler rx;
  for (const auto& c : stream) {
    atm::Cell copy = c;
    const double dice = rng.uniform();
    if (dice < 0.04) continue;
    if (dice < 0.08) {
      copy.payload[rng.uniform_int(0, 47)] ^=
          static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
    }
    if (auto d = rx.push(copy)) {
      if (d->error == aal::ReassemblyError::kNone) {
        EXPECT_NE(std::ranges::find(sent, d->sdu), sent.end())
            << "seed " << GetParam();
      }
    }
  }
}

// --- end-to-end randomized universes ------------------------------------

TEST_P(Seeded, EndToEndInvariantsUnderRandomLoss) {
  sim::Rng rng(GetParam() ^ 0xE2E);
  core::Testbed bed;
  auto& a = bed.add_station({});
  auto& b = bed.add_station({});
  net::LossModel loss;
  loss.cell_loss_rate = rng.uniform() * 0.01;
  if (rng.chance(0.5)) loss.mean_burst_cells = 2 + rng.uniform() * 6;
  loss.payload_bit_error_rate = rng.uniform() * 1e-3;
  loss.header_bit_error_rate = rng.uniform() * 1e-3;
  bed.connect(a, b, loss);

  const auto aal_type =
      rng.chance(0.5) ? aal::AalType::kAal5 : aal::AalType::kAal34;
  const atm::VcId vc{0, 21};
  a.nic().open_vc(vc, aal_type);
  b.nic().open_vc(vc, aal_type);

  const std::size_t free_pages_a = a.memory().pages_free();
  const std::size_t free_pages_b = b.memory().pages_free();

  std::size_t delivered = 0, corrupted = 0;
  b.host().set_rx_handler([&](aal::Bytes sdu, const host::RxInfo&) {
    ++delivered;
    if (!aal::verify_pattern(sdu)) ++corrupted;
  });

  const std::size_t to_send = 30;
  std::size_t sent = 0;
  std::function<void()> pump = [&] {
    while (sent < to_send) {
      const std::size_t n = 1 + rng.uniform_int(0, 9180);
      if (!a.host().send(vc, aal_type,
                         aal::make_pattern(n, GetParam() + sent))) {
        return;
      }
      ++sent;
    }
  };
  a.host().set_tx_ready(pump);
  pump();
  bed.run_for(sim::milliseconds(120));

  // Integrity: losses may shrink `delivered`, never corrupt it.
  EXPECT_EQ(corrupted, 0u);
  EXPECT_LE(delivered, to_send);
  EXPECT_EQ(sent, to_send);

  // Cell conservation at the receiver.
  const auto& rx = b.nic().rx();
  EXPECT_GE(rx.cells_received(),
            rx.cells_hec_discarded() + rx.cells_fifo_dropped() +
                rx.cells_no_vc());

  // Memory conservation: all pages return once traffic drains.
  EXPECT_EQ(a.memory().pages_free(), free_pages_a);
  EXPECT_EQ(b.memory().pages_free(), free_pages_b);
}

// --- GCRA conformance properties ----------------------------------------

TEST_P(Seeded, PolicedStreamReplaysClean) {
  sim::Rng rng(GetParam() ^ 0x6C4A);
  const sim::Time T = sim::nanoseconds(
      static_cast<std::int64_t>(100 + rng.uniform_int(0, 20000)));
  const sim::Time tau = sim::nanoseconds(
      static_cast<std::int64_t>(rng.uniform_int(0, 5000)));
  atm::Gcra police(T, tau);

  sim::Time t = 0;
  std::vector<sim::Time> accepted;
  for (int i = 0; i < 500; ++i) {
    t += static_cast<sim::Time>(rng.exponential(static_cast<double>(T)));
    if (police.police(t)) accepted.push_back(t);
  }
  // The accepted subsequence is a conforming stream by definition:
  // replaying it through a fresh GCRA accepts every cell.
  atm::Gcra replay(T, tau);
  for (sim::Time when : accepted) {
    EXPECT_TRUE(replay.police(when)) << "seed " << GetParam();
  }
}

TEST_P(Seeded, ShapedTxStreamAlwaysConforms) {
  sim::Rng rng(GetParam() ^ 0x54A9);
  sim::Simulator sim;
  bus::Bus bus(sim, bus::BusConfig{});
  bus::HostMemory mem(1u << 20, 4096);
  proc::FirmwareProfile fw;
  nic::TxPath tx(sim, bus, mem, fw, nic::TxPathConfig{}, atm::sts3c());

  const atm::VcId vc{0, 3};
  const double pcr = 20000.0 + rng.uniform() * 100000.0;
  tx.set_shaper(vc, pcr, 0);

  // A strict policer at the same PCR with one-slot CDVT must accept
  // every emitted cell.
  atm::Gcra police = atm::Gcra::for_pcr(pcr, atm::sts3c().cell_slot());
  std::size_t violations = 0;
  tx.framer().set_sink([&](const atm::Cell&) {
    if (!police.police(sim.now())) ++violations;
  });
  tx.start();

  for (int i = 0; i < 5; ++i) {
    nic::TxDescriptor d;
    const aal::Bytes sdu =
        aal::make_pattern(100 + rng.uniform_int(0, 3000), i);
    d.sg = mem.stage(sdu);
    d.len = sdu.size();
    d.vc = vc;
    ASSERT_TRUE(tx.post(std::move(d)));
  }
  sim.run_until(sim::milliseconds(200));
  EXPECT_EQ(violations, 0u) << "seed " << GetParam();
  EXPECT_EQ(tx.pdus_sent(), 5u);
}

// --- HEC randomized correction ------------------------------------------

TEST_P(Seeded, HecCorrectsRandomSingleBitErrors) {
  sim::Rng rng(GetParam() ^ 0xEC);
  for (int trial = 0; trial < 200; ++trial) {
    std::array<std::uint8_t, 4> header{
        static_cast<std::uint8_t>(rng.uniform_int(0, 255)),
        static_cast<std::uint8_t>(rng.uniform_int(0, 255)),
        static_cast<std::uint8_t>(rng.uniform_int(0, 255)),
        static_cast<std::uint8_t>(rng.uniform_int(0, 255))};
    const std::uint8_t hec = atm::hec_compute(
        std::span<const std::uint8_t, 4>(header.data(), 4));
    auto damaged = header;
    const auto bit = rng.uniform_int(0, 31);
    damaged[bit / 8] ^= static_cast<std::uint8_t>(0x80u >> (bit % 8));
    atm::HecReceiver rx;
    ASSERT_EQ(rx.push(std::span<std::uint8_t, 4>(damaged.data(), 4), hec),
              atm::HecVerdict::kCorrected);
    EXPECT_EQ(damaged, header);
  }
}

// --- bus byte conservation -----------------------------------------------

TEST_P(Seeded, BusMovesEveryByteExactlyOnce) {
  sim::Rng rng(GetParam() ^ 0xB5);
  sim::Simulator sim;
  bus::Bus bus(sim, bus::BusConfig{});
  std::uint64_t expect = 0;
  int completions = 0;
  const int n = 50;
  for (int i = 0; i < n; ++i) {
    const std::size_t bytes = 1 + rng.uniform_int(0, 20000);
    expect += bytes;
    const auto dir = rng.chance(0.5) ? bus::Direction::kRead
                                     : bus::Direction::kWrite;
    sim.at(static_cast<sim::Time>(rng.uniform_int(0, 1'000'000)),
           [&bus, bytes, dir, &completions] {
             bus.transfer(bytes, dir, [&completions] { ++completions; });
           });
  }
  sim.run();
  EXPECT_EQ(completions, n);
  EXPECT_EQ(bus.bytes_moved(), expect);
  EXPECT_GT(bus.utilization(sim.now()), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Universes, Seeded,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace hni
