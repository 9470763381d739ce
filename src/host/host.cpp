#include "host/host.hpp"

#include <utility>

namespace hni::host {

Host::Host(sim::Simulator& sim, bus::HostMemory& memory, nic::Nic& nic,
           HostConfig config)
    : sim_(sim),
      memory_(memory),
      nic_(nic),
      config_(config),
      cpu_(sim, config.cpu, sim::Layer::kHost) {
  nic_.tx().set_completion(
      [this](const nic::TxDescriptor& d) { on_tx_complete(d); });
  nic_.rx().set_deliver([this](nic::RxDelivery d) { on_rx(std::move(d)); });
  // Post the receive-buffer budget: the NIC draws landing pages from it
  // and a delivery returns them once the host has consumed the SDU.
  nic_.rx().post_pages(config_.rx_posted_pages);
  // Pin what the driver can hold at once: the posted receive budget
  // plus one staging page per send-window slot. The page allocator
  // hands out the lowest pages first, so while the outstanding pages
  // stay within this prefix no page is first touched mid-run. The
  // prefix counts one staging page per send slot, but send() stages an
  // SDU in ceil(len / page) pages: a station that sends multi-page
  // SDUs at a full window while holding its whole posted receive
  // budget first-touches pages mid-run. Sizing for that case needs the
  // largest SDU, which HostConfig does not carry; hostbench p2p-bulk's
  // sender (window 64, 9180-octet SDUs) peaks at 192 pages, inside its
  // 576 pinned pages, because its receive budget sits unused.
  memory_.pin(config_.rx_posted_pages + config_.max_inflight_tx);
}

bool Host::send(atm::VcId vc, aal::AalType aal, aal::Bytes sdu) {
  if (inflight_ >= config_.max_inflight_tx) return false;
  ++inflight_;
  sent_.add();

  // Stage the SDU into pinned host pages (functional copy; the CPU cost
  // of the syscall + staging is charged to the host engine).
  nic::TxDescriptor d;
  d.len = sdu.size();
  d.sg = memory_.stage(sdu);
  d.vc = vc;
  d.aal = aal;
  d.cookie = sent_.value();

  posting_.push_back(std::move(d));
  cpu_.execute(config_.costs.tx_syscall, [this] {
    nic::TxDescriptor next = posting_.take_front();
    if (nic_.tx().ring_full()) {
      backlog_.push_back(std::move(next));
    } else {
      nic_.tx().post(std::move(next));
    }
  });
  return true;
}

void Host::on_tx_complete(const nic::TxDescriptor& d) {
  memory_.free(d.sg);
  drain_backlog();
  cpu_.execute(config_.costs.tx_completion, [this] {
    if (inflight_ > 0) --inflight_;
    if (tx_ready_) tx_ready_();
  });
}

void Host::drain_backlog() {
  while (!backlog_.empty() && !nic_.tx().ring_full()) {
    nic_.tx().post(backlog_.take_front());
  }
}

void Host::on_rx(nic::RxDelivery d) {
  // One interrupt may cover several PDUs; charge trap entry once.
  std::uint32_t instr = config_.costs.rx_per_pdu;
  if (d.first_of_batch) {
    instr += config_.costs.interrupt_entry;
    interrupts_.add();
  }
  landed_.push_back(std::move(d));
  cpu_.execute(instr, [this] {
    const nic::RxDelivery d = landed_.take_front();
    aal::Bytes sdu = memory_.gather(d.sg, d.len);
    nic_.rx().repost(d.sg);  // replenish the posted budget
    received_.add();
    RxInfo info;
    info.vc = d.vc;
    info.first_cell_time = d.first_cell_time;
    info.delivered_time = d.delivered_time;
    info.handed_up_time = sim_.now();
    info.interrupt_batch = d.interrupt_batch;
    if (auto it = vc_handlers_.find(d.vc); it != vc_handlers_.end()) {
      it->second(std::move(sdu), info);
    } else if (rx_handler_) {
      rx_handler_(std::move(sdu), info);
    }
  });
}

}  // namespace hni::host
