// The paper's validation scenario (§3): a customer activates an IPSec
// endpoint on a domestic CPE. Deploys the Strongswan-like ESP tunnel
// endpoint in all three flavors of Table 1 and reports goodput + RAM +
// image, then shows the tunnel really encrypts: a second node decrypts the
// traffic and the inner packet survives byte-for-byte.
#include <cstdio>
#include <vector>

#include "core/node.hpp"
#include "nffg/nffg.hpp"
#include "packet/builder.hpp"
#include "traffic/source.hpp"

using namespace nnfv;  // NOLINT(google-build-using-namespace): example

namespace {

constexpr const char* kEncKey = "000102030405060708090a0b0c0d0e0f";
constexpr const char* kAuthKey =
    "202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f";

nffg::NfFg vpn_graph(const std::string& id, bool initiator,
                     std::optional<virt::BackendKind> hint) {
  nffg::NfFg graph;
  graph.id = id;
  nffg::NfNode& nf = graph.add_nf("vpn", "ipsec");
  nf.backend_hint = hint;
  nf.config = {{"local_ip", initiator ? "198.51.100.1" : "198.51.100.2"},
               {"peer_ip", initiator ? "198.51.100.2" : "198.51.100.1"},
               {"spi_out", initiator ? "1001" : "2002"},
               {"spi_in", initiator ? "2002" : "1001"},
               {"enc_key", kEncKey},
               {"auth_key", kAuthKey}};
  graph.add_endpoint("red", "eth0");    // plaintext side
  graph.add_endpoint("black", "eth1");  // encrypted side
  graph.connect("r1", nffg::endpoint_ref("red"), nffg::nf_port("vpn", 0));
  graph.connect("r2", nffg::nf_port("vpn", 1), nffg::endpoint_ref("black"));
  graph.connect("r3", nffg::endpoint_ref("black"), nffg::nf_port("vpn", 1));
  graph.connect("r4", nffg::nf_port("vpn", 0), nffg::endpoint_ref("red"));
  return graph;
}

double measure_flavor(virt::BackendKind backend, double* ram_mb,
                      double* image_mb) {
  // Table 1's goodput is an output of the service-time model, in
  // simulated time.
  core::UniversalNode node(
      core::UniversalNodeConfig{.modelled_timing = true});
  auto report = node.orchestrator().deploy(vpn_graph("vpn", true, backend));
  if (!report) return -1.0;
  *ram_mb =
      static_cast<double>(report->placements[0].ram_bytes) / (1024 * 1024);
  *image_mb =
      static_cast<double>(report->placements[0].image_bytes) / (1024 * 1024);

  const sim::SimTime warmup = 100 * sim::kMillisecond;
  const sim::SimTime window = 500 * sim::kMillisecond;
  std::uint64_t delivered = 0;
  (void)node.set_egress("eth1", [&](packet::PacketBuffer&&) {
    const sim::SimTime now = node.simulator().now();
    if (now >= warmup && now < warmup + window) ++delivered;
  });
  traffic::UdpSourceConfig source_config;
  source_config.payload_bytes = 1408;
  source_config.packets_per_second = 150000.0;
  source_config.stop = warmup + window;
  traffic::UdpSource source(node.simulator(), source_config,
                            [&](packet::PacketBuffer&& frame) {
                              (void)node.inject("eth0", std::move(frame));
                            });
  source.begin();
  node.simulator().run_until(warmup + window + 20 * sim::kMillisecond);
  return static_cast<double>(delivered) * 1408 * 8 /
         (static_cast<double>(window) / 1e9) / 1e6;
}

}  // namespace

int main() {
  std::printf("=== IPSec endpoint on a domestic CPE (paper §3) ===\n\n");
  std::printf("%-10s %12s %10s %10s\n", "flavor", "goodput", "RAM", "image");

  struct Flavor {
    const char* name;
    virt::BackendKind backend;
  } flavors[] = {{"vm", virt::BackendKind::kVm},
                 {"docker", virt::BackendKind::kDocker},
                 {"native", virt::BackendKind::kNative}};
  for (const Flavor& flavor : flavors) {
    double ram = 0.0;
    double image = 0.0;
    const double mbps = measure_flavor(flavor.backend, &ram, &image);
    std::printf("%-10s %7.1f Mbps %7.1f MB %7.1f MB\n", flavor.name, mbps,
                ram, image);
  }

  // Functional proof: CPE encrypts, head-end decrypts.
  std::printf("\n--- end-to-end tunnel check (CPE -> provider head-end) "
              "---\n");
  core::UniversalNode cpe;
  core::UniversalNode headend;
  if (!cpe.orchestrator()
           .deploy(vpn_graph("cpe", true, virt::BackendKind::kNative))
           .is_ok() ||
      !headend.orchestrator()
           .deploy(vpn_graph("he", false, virt::BackendKind::kNative))
           .is_ok()) {
    std::printf("tunnel deployment failed\n");
    return 1;
  }
  // Head-end's red side is eth0, black side eth1; CPE black -> HE black.
  (void)cpe.set_egress("eth1", [&](packet::PacketBuffer&& frame) {
    std::printf("wire: ESP frame of %zu bytes\n", frame.size());
    (void)headend.inject("eth1", std::move(frame));
  });
  std::vector<packet::PacketBuffer> decrypted;
  (void)headend.set_egress("eth0", [&](packet::PacketBuffer&& frame) {
    decrypted.push_back(std::move(frame));
  });

  packet::UdpFrameSpec spec;
  spec.ip_src = *packet::Ipv4Address::parse("192.168.1.10");
  spec.ip_dst = *packet::Ipv4Address::parse("10.8.0.1");
  spec.src_port = 40000;
  spec.dst_port = 5001;
  static const std::vector<std::uint8_t> payload(300, 0x5A);
  spec.payload = payload;
  packet::PacketBuffer original = packet::build_udp_frame(spec);
  const std::vector<std::uint8_t> inner_before(original.data().begin() + 14,
                                               original.data().end());
  // Both nodes run their hops to completion inside the inject.
  (void)cpe.inject("eth0", std::move(original));

  if (decrypted.size() == 1) {
    const std::vector<std::uint8_t> inner_after(
        decrypted[0].data().begin() + 14, decrypted[0].data().end());
    std::printf("decrypted inner packet %s the original (%zu bytes)\n",
                inner_before == inner_after ? "MATCHES" : "DIFFERS FROM",
                inner_after.size());
    return inner_before == inner_after ? 0 : 1;
  }
  std::printf("no decrypted packet received\n");
  return 1;
}
