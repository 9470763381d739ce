// Switched virtual circuits: signalled call setup, data, and teardown.
//
// Three workstations share an ATM switch with a call agent. Alice calls
// Bob with a traffic contract, ships a file's worth of PDUs over the
// network-assigned VC (shaped by her NIC, policed by the switch), then
// releases. Carol's number is busy, and a wrong number is refused by
// the network — each failure reports its Q.850-style cause. The
// timeline prints everything with simulated timestamps.

#include <cstdio>

#include "sig/network.hpp"

using namespace hni;

int main() {
  core::Testbed bed;
  auto& sw = bed.add_switch(
      {.ports = 4, .queue_cells = 512, .clp_threshold = 512});
  auto& alice = bed.add_station({.name = "alice"});
  auto& bob = bed.add_station({.name = "bob"});
  auto& carol = bed.add_station({.name = "carol"});
  sig::SignalingNetwork net(bed, sw, /*agent_port=*/3);
  auto& cc_alice = net.attach(alice, 0, /*party=*/1);
  auto& cc_bob = net.attach(bob, 1, /*party=*/2);
  auto& cc_carol = net.attach(carol, 2, /*party=*/3);

  auto stamp = [&] { return sim::format_time(bed.now()); };

  cc_bob.set_incoming([&](const sig::CallControl::CallInfo& i) {
    std::printf("[%8s] bob: incoming call from party %u on VC %s — "
                "accepting\n", stamp().c_str(), i.peer,
                i.vc.to_string().c_str());
    return true;
  });
  cc_carol.set_incoming([&](const sig::CallControl::CallInfo&) {
    std::printf("[%8s] carol: busy, rejecting\n", stamp().c_str());
    return false;
  });

  std::size_t received = 0;
  bob.host().set_rx_handler([&](aal::Bytes sdu, const host::RxInfo& info) {
    ++received;
    if (received == 1 || received == 20) {
      std::printf("[%8s] bob: PDU %zu (%zu bytes, intact=%s) on VC %s\n",
                  stamp().c_str(), received, sdu.size(),
                  aal::verify_pattern(sdu) ? "yes" : "NO",
                  info.vc.to_string().c_str());
    }
  });

  // Call 1: Alice -> Bob with a 1/4-STS-3c contract; send 20 PDUs then
  // hang up.
  const double pcr = atm::sts3c().cells_per_second() / 4.0;
  std::printf("[%8s] alice: dialing party 2 (PCR contract %.0f cells/s)\n",
              stamp().c_str(), pcr);
  cc_alice.set_released([&](const sig::CallControl::CallInfo& i,
                            sig::Cause cause) {
    std::printf("[%8s] alice: call on VC %s released (%s)\n",
                stamp().c_str(), i.vc.to_string().c_str(),
                std::string(to_string(cause)).c_str());
  });
  cc_alice.place_call(
      2, aal::AalType::kAal5, pcr,
      [&](const sig::CallControl::CallInfo& i) {
        std::printf("[%8s] alice: connected on VC %s — sending 20 PDUs\n",
                    stamp().c_str(), i.vc.to_string().c_str());
        for (int k = 0; k < 20; ++k) {
          alice.host().send(i.vc, i.aal, aal::make_pattern(9180, k));
        }
        bed.sim().after(sim::milliseconds(70), [&, i] {
          std::printf("[%8s] alice: hanging up\n", stamp().c_str());
          cc_alice.release(i.call_id);
        });
      });

  // Call 2: Alice -> Carol (busy).
  bed.sim().after(sim::milliseconds(5), [&] {
    std::printf("[%8s] alice: dialing party 3\n", stamp().c_str());
    cc_alice.place_call(
        3, aal::AalType::kAal5, 0.0,
        [](const sig::CallControl::CallInfo&) {},
        [&](std::uint32_t, sig::Cause cause) {
          std::printf("[%8s] alice: call failed — %s\n", stamp().c_str(),
                      std::string(to_string(cause)).c_str());
        });
  });

  // Call 3: wrong number.
  bed.sim().after(sim::milliseconds(10), [&] {
    std::printf("[%8s] alice: dialing party 99\n", stamp().c_str());
    cc_alice.place_call(
        99, aal::AalType::kAal5, 0.0,
        [](const sig::CallControl::CallInfo&) {},
        [&](std::uint32_t, sig::Cause cause) {
          std::printf("[%8s] alice: call failed — %s\n", stamp().c_str(),
                      std::string(to_string(cause)).c_str());
        });
  });

  bed.run_for(sim::milliseconds(120));

  std::printf("\n-- epilogue --\n");
  std::printf("bob received %zu PDUs; switch policed-dropped %llu cells "
              "(contract honoured by shaping)\n", received,
              static_cast<unsigned long long>(sw.cells_policed_dropped()));
  std::printf("network: %llu calls routed, %llu refused, %zu still "
              "active\n",
              static_cast<unsigned long long>(net.calls_routed()),
              static_cast<unsigned long long>(net.calls_refused()),
              net.active_calls());
  // Carol's busy signal is her own RELEASE; only the wrong number is a
  // refusal by the network.
  return received == 20 && net.calls_routed() == 1 &&
                 net.calls_refused() == 1 && net.active_calls() == 0
             ? 0
             : 1;
}
