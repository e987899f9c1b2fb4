#include "perf/machine.hpp"

#include <cstdio>
#include <cstring>

namespace kestrel::perf {

double MachineProfile::peak_gflops() const {
  const int lanes = (max_tier == simd::IsaTier::kAvx512) ? 8 : 4;
  // 2 FMA pipes * 2 flops per FMA * lanes doubles
  return cores * freq_ghz * 2.0 * 2.0 * lanes;
}

MachineProfile knl7230() {
  MachineProfile p;
  p.name = "KNL 7230";
  p.cores = 64;
  p.freq_ghz = 1.3;  // drops ~0.2 under heavy AVX from 1.5 turbo
  p.max_tier = simd::IsaTier::kAvx512;
  p.l3_mb = 0.0;
  p.dram_peak_gbs = 90.0;    // ~78% of 115.2 GB/s theoretical
  p.hbm_peak_gbs = 490.0;    // Figure 4: flat-mode stream ~490 GB/s
  p.bw_saturation_procs = 58.0;  // Figure 4
  p.novec_bw_fraction_flat = 0.42;   // Figure 4 Flat:novec plateau
  p.novec_bw_fraction_cache = 0.93;  // Figure 4 Cache:novec
  p.core_cycle_scale = 1.0;
  return p;
}

MachineProfile haswell() {
  MachineProfile p;
  p.name = "Haswell E5-2699v3";
  p.cores = 18;
  p.freq_ghz = 2.3;
  p.max_tier = simd::IsaTier::kAvx2;
  p.l3_mb = 45.0;
  p.dram_peak_gbs = 58.0;  // ~85% of 68 GB/s
  p.bw_saturation_procs = 10.0;
  p.core_cycle_scale = 0.45;  // big OoO core vs KNL core
  return p;
}

MachineProfile broadwell() {
  MachineProfile p;
  p.name = "Broadwell E5-2699v4";
  p.cores = 22;
  p.freq_ghz = 2.2;
  p.max_tier = simd::IsaTier::kAvx2;
  p.l3_mb = 55.0;
  p.dram_peak_gbs = 65.0;  // ~85% of 76.8 GB/s
  p.bw_saturation_procs = 11.0;
  p.core_cycle_scale = 0.44;
  return p;
}

MachineProfile skylake() {
  MachineProfile p;
  p.name = "Skylake 8180M";
  p.cores = 28;
  p.freq_ghz = 2.3;  // AVX-512 sustained clock below the 2.5 base
  p.max_tier = simd::IsaTier::kAvx512;
  p.l3_mb = 38.5;
  p.dram_peak_gbs = 101.0;  // ~85% of 119.2 GB/s (6 channels)
  p.bw_saturation_procs = 13.0;
  p.core_cycle_scale = 0.38;
  return p;
}

std::vector<MachineProfile> table1_machines() {
  return {haswell(), broadwell(), skylake(), knl7230()};
}

std::string host_cpu_model() {
  FILE* f = std::fopen("/proc/cpuinfo", "re");
  if (f == nullptr) return "";
  std::string model;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "model name", 10) != 0) continue;
    const char* colon = std::strchr(line, ':');
    if (colon == nullptr) continue;
    const char* p = colon + 1;
    while (*p == ' ' || *p == '\t') ++p;
    model = p;
    while (!model.empty() && (model.back() == '\n' || model.back() == ' ')) {
      model.pop_back();
    }
    break;
  }
  std::fclose(f);
  return model;
}

}  // namespace kestrel::perf
