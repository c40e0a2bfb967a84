// Copyright 2026 The PolarCXLMem Reproduction Authors.
// RDMA NIC model (ConnectX-6-class): a bandwidth channel for the wire plus
// a doorbell/IOPS channel modelling the per-operation NIC processing that
// keeps IOPS-bound disaggregated applications from scaling past ~32 cores
// (implicit doorbell contention and NIC cache thrashing; Section 2.2(3)).
#pragma once

#include <cstdint>
#include <string>

#include "common/types.h"
#include "sim/bandwidth_channel.h"
#include "sim/latency_model.h"

namespace polarcxl::rdma {

class RdmaNic {
 public:
  struct Options {
    uint64_t bandwidth_bps = sim::BandwidthModel{}.rdma_nic_bps;
    uint64_t iops = sim::BandwidthModel{}.rdma_nic_iops;  // verbs ops/sec
  };

  RdmaNic(std::string name, Options options)
      : name_(std::move(name)),
        wire_(name_ + ".wire", options.bandwidth_bps),
        doorbell_(name_ + ".doorbell", options.iops) {}

  /// Wire bandwidth channel; "bytes" are bytes.
  sim::BandwidthChannel& wire() { return wire_; }
  /// Doorbell channel; "bytes" are verbs operations.
  sim::BandwidthChannel& doorbell() { return doorbell_; }

  const std::string& name() const { return name_; }

  void ResetStats() {
    wire_.ResetStats();
    doorbell_.ResetStats();
  }

 private:
  std::string name_;
  sim::BandwidthChannel wire_;
  sim::BandwidthChannel doorbell_;
};

}  // namespace polarcxl::rdma
