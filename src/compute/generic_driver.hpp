// GenericVnfDriver: the VM, Docker and DPDK drivers. The three
// technologies differ only in their BackendCost constants, RAM overhead
// and image flavor — exactly the knobs the virt models expose — so one
// implementation parameterized by BackendKind covers them. The node
// constructs one per configured backend with its Figure 1 driver name
// ("libvirt", "docker", "dpdk").
#pragma once

#include <map>
#include <memory>

#include "compute/driver.hpp"
#include "compute/templates.hpp"
#include "virt/image_store.hpp"
#include "virt/ram_model.hpp"

namespace nnfv::compute {

/// Everything a generic driver needs from the node. Non-owning; the node
/// object (core) guarantees these outlive the drivers.
struct DriverEnv {
  NfRuntime* runtime = nullptr;
  const VnfTemplateRegistry* templates = nullptr;
  const virt::ImageStore* images = nullptr;
  virt::DiskLedger* disk = nullptr;
  virt::RamLedger* ram = nullptr;
};

class GenericVnfDriver : public ComputeDriver {
 public:
  GenericVnfDriver(virt::BackendKind kind, std::string name, DriverEnv env);

  [[nodiscard]] virt::BackendKind kind() const override { return kind_; }
  [[nodiscard]] std::string_view name() const override { return name_; }

  [[nodiscard]] bool can_deploy(
      const std::string& functional_type) const override;

  util::Result<DeployedNf> deploy(const NfDeploySpec& spec,
                                  nfswitch::Lsi& lsi) override;

  util::Status update(const DeployedNf& deployed,
                      const nnf::NfConfig& config) override;

  util::Status undeploy(const DeployedNf& deployed) override;

  [[nodiscard]] util::Result<json::Value> nf_stats(
      const DeployedNf& deployed) const override;

  /// Running instances (diagnostics / Figure 1 bench).
  [[nodiscard]] std::size_t instance_count() const {
    return instances_.size();
  }

  /// Default image name for a functional type under this backend
  /// ("<type>:<backend>"), used when the spec does not name one.
  [[nodiscard]] std::string default_image(
      const std::string& functional_type) const;

 private:
  struct Record {
    std::shared_ptr<NfInstance> instance;
    nfswitch::Lsi* lsi = nullptr;
    std::vector<nfswitch::PortId> lsi_ports;
    virt::Image image;
    std::uint64_t ram_bytes = 0;
  };

  virt::BackendKind kind_;
  std::string name_;
  DriverEnv env_;
  InstanceId next_instance_ = 1;
  std::map<InstanceId, Record> instances_;
};

}  // namespace nnfv::compute
