// NativeDriver — the NNF driver this paper contributes.
//
// "When a NNF should be used, the compute manager selects a NNF driver
// developed as part of this work. This NNF driver implements the same
// abstraction defined for the other compute drivers and dynamically
// activates the plugin associated to the selected NNF. [...] The NNF
// driver starts the NNF in a new network namespace, to provide a basic
// form of isolation, and configures the NNF with a predefined
// configuration script." (paper §2)
//
// Responsibilities, mirrored here:
//  * plugin activation via nnf::NnfCatalog (the bash-script collection);
//  * max-instance enforcement and *sharing*: a sharable NNF that is
//    already running serves additional service graphs through new
//    isolated contexts instead of new processes;
//  * per-graph traffic marking (nnf::MarkAllocator) and the adaptation
//    layer for single-interface NNFs;
//  * network-namespace isolation with veth attachments;
//  * resource accounting (native functions add no backend RAM overhead
//    and no image to pull — Table 1's native row).
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "compute/driver.hpp"
#include "netns/netns.hpp"
#include "nnf/adaptation.hpp"
#include "nnf/catalog.hpp"
#include "nnf/marking.hpp"
#include "virt/ram_model.hpp"

namespace nnfv::compute {

struct NativeDriverEnv {
  NfRuntime* runtime = nullptr;
  nnf::NnfCatalog* catalog = nullptr;
  netns::NamespaceRegistry* netns = nullptr;
  nnf::MarkAllocator* marks = nullptr;
  virt::RamLedger* ram = nullptr;
};

class NativeDriver final : public ComputeDriver {
 public:
  explicit NativeDriver(NativeDriverEnv env);

  [[nodiscard]] virt::BackendKind kind() const override {
    return virt::BackendKind::kNative;
  }
  [[nodiscard]] std::string_view name() const override { return "native"; }

  [[nodiscard]] bool can_deploy(
      const std::string& functional_type) const override;

  util::Result<DeployedNf> deploy(const NfDeploySpec& spec,
                                  nfswitch::Lsi& lsi) override;

  util::Status update(const DeployedNf& deployed,
                      const nnf::NfConfig& config) override;

  util::Status undeploy(const DeployedNf& deployed) override;

  [[nodiscard]] util::Result<json::Value> nf_stats(
      const DeployedNf& deployed) const override;

  /// Diagnostics for tests and the Figure 1 bench.
  [[nodiscard]] std::size_t running_instances(
      const std::string& functional_type) const;
  [[nodiscard]] std::size_t total_instances() const;

 private:
  /// One running native instance (possibly shared by several graphs).
  struct Shared {
    std::shared_ptr<NfInstance> instance;
    std::shared_ptr<nnf::NnfPlugin> plugin;
    std::unique_ptr<nnf::AdaptationLayer> adaptation;  // single-interface
    std::string ns_name;
    nnf::ContextId next_ctx = 0;
    std::size_t active_contexts = 0;
    std::uint64_t base_ram = 0;
    /// Adaptation egress routing: mark -> destination LSI port.
    std::map<nnf::Mark, std::pair<nfswitch::Lsi*, nfswitch::PortId>> routes;
  };

  struct Deployment {
    std::shared_ptr<Shared> shared;
    nnf::ContextId ctx = nnf::kDefaultContext;
    nfswitch::Lsi* lsi = nullptr;
    std::vector<nfswitch::PortId> lsi_ports;
    std::vector<std::string> mark_owners;
    std::vector<nnf::Mark> marks;
    /// RAM this deployment itself reserved (context state only; the
    /// instance's base RAM is owned by the instance and released when the
    /// last context goes away).
    std::uint64_t owned_ram = 0;
    std::string functional_type;
  };

  util::Result<std::shared_ptr<Shared>> create_instance(
      const std::string& functional_type,
      const std::shared_ptr<nnf::NnfPlugin>& plugin);

  void destroy_instance(const std::string& functional_type,
                        const std::shared_ptr<Shared>& shared);

  static std::string deployment_key(const std::string& graph_id,
                                    const std::string& nf_id) {
    return graph_id + "/" + nf_id;
  }

  NativeDriverEnv env_;
  InstanceId next_instance_ = 1;
  std::map<std::string, std::vector<std::shared_ptr<Shared>>> running_;
  std::map<std::string, Deployment> deployments_;
};

}  // namespace nnfv::compute
