#include "common/runtime_config.h"

#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <string>

namespace logcl {

namespace {

std::string Lower(std::string s) {
  for (char& c : s) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return s;
}

std::string EnvString(const char* name) {
  const char* v = std::getenv(name);
  return v == nullptr ? std::string() : std::string(v);
}

int EnvInt(const char* name, int default_value) {
  const char* v = std::getenv(name);
  if (v == nullptr) return default_value;
  int n = std::atoi(v);
  return n > 0 ? n : default_value;
}

// Like EnvInt but 0 is a meaningful value (e.g. "unbounded"); only unset or
// negative/unparsable keeps the default.
int64_t EnvInt64NonNegative(const char* name, int64_t default_value) {
  const char* v = std::getenv(name);
  if (v == nullptr) return default_value;
  int64_t n = std::atoll(v);
  return n >= 0 ? n : default_value;
}

RuntimeConfig Parse() {
  RuntimeConfig config;
  config.num_threads = EnvInt("LOGCL_NUM_THREADS", 0);
  config.tensor_pool =
      ParseBoolFlag(std::getenv("LOGCL_TENSOR_POOL"), config.tensor_pool);
  config.poison_uninit =
      ParseBoolFlag(std::getenv("LOGCL_POISON_UNINIT"), config.poison_uninit);
  config.pool_max_mb =
      EnvInt64NonNegative("LOGCL_POOL_MAX_MB", config.pool_max_mb);
  config.simd = ParseBoolFlag(std::getenv("LOGCL_SIMD"), config.simd);
  config.interop = ParseBoolFlag(std::getenv("LOGCL_INTEROP"), config.interop);
  config.fused_mp =
      ParseBoolFlag(std::getenv("LOGCL_FUSED_MP"), config.fused_mp);
  std::string quant = Lower(EnvString("LOGCL_QUANT"));
  if (quant == "bf16" || quant == "int8") {
    config.quant = quant;
  }
  config.mmap_checkpoint = ParseBoolFlag(std::getenv("LOGCL_MMAP_CKPT"),
                                         config.mmap_checkpoint);
  config.observability =
      ParseBoolFlag(std::getenv("LOGCL_OBSERVABILITY"), config.observability);
  config.metrics_dump = EnvString("LOGCL_METRICS_DUMP");
  config.metrics_dump_file = EnvString("LOGCL_METRICS_DUMP_FILE");
  return config;
}

const char* OnOff(bool v) { return v ? "on" : "off"; }

}  // namespace

bool ParseBoolFlag(const char* value, bool default_value) {
  if (value == nullptr) return default_value;
  std::string v = Lower(value);
  if (v == "0" || v == "false" || v == "off") return false;
  if (v == "1" || v == "true" || v == "on") return true;
  return default_value;
}

const RuntimeConfig& RuntimeConfig::Get() {
  static const RuntimeConfig* config = new RuntimeConfig(Parse());
  return *config;
}

std::vector<RuntimeConfigEntry> EffectiveConfig() {
  const RuntimeConfig& c = RuntimeConfig::Get();
  std::vector<RuntimeConfigEntry> entries;
  entries.push_back({"LOGCL_NUM_THREADS",
                     c.num_threads == 0 ? "auto" : std::to_string(c.num_threads),
                     "auto", "worker count of the shared thread pool"});
  entries.push_back({"LOGCL_TENSOR_POOL", OnOff(c.tensor_pool), "on",
                     "size-class pooled tensor allocator"});
  entries.push_back({"LOGCL_POISON_UNINIT", OnOff(c.poison_uninit), "off",
                     "sNaN-poison recycled uninitialised buffers"});
  entries.push_back({"LOGCL_POOL_MAX_MB",
                     c.pool_max_mb == 0 ? "unbounded"
                                        : std::to_string(c.pool_max_mb),
                     "1024", "MiB cap on the global pooled free lists"});
  entries.push_back({"LOGCL_SIMD", OnOff(c.simd), "on",
                     "runtime-dispatched AVX2/NEON kernel tables"});
  entries.push_back({"LOGCL_INTEROP", OnOff(c.interop), "on",
                     "multi-threaded ready-queue autograd engine"});
  entries.push_back({"LOGCL_FUSED_MP", OnOff(c.fused_mp), "on",
                     "fused CSR message-passing autograd op"});
  entries.push_back({"LOGCL_QUANT", c.quant, "fp32",
                     "default snapshot scoring precision"});
  entries.push_back({"LOGCL_MMAP_CKPT", OnOff(c.mmap_checkpoint), "off",
                     "memory-mapped checkpoint loads"});
  entries.push_back({"LOGCL_OBSERVABILITY", OnOff(c.observability), "on",
                     "metric recording and tracing"});
  entries.push_back({"LOGCL_METRICS_DUMP",
                     c.metrics_dump.empty() ? "off" : c.metrics_dump, "off",
                     "atexit metrics dump format (text|json)"});
  entries.push_back({"LOGCL_METRICS_DUMP_FILE",
                     c.metrics_dump_file.empty() ? "stderr"
                                                 : c.metrics_dump_file,
                     "stderr", "metrics dump destination"});
  return entries;
}

void DumpEffectiveConfig(std::ostream& os) {
  for (const RuntimeConfigEntry& e : EffectiveConfig()) {
    char line[256];
    std::snprintf(line, sizeof(line), "%-26s = %-10s (default %-6s) %s\n",
                  e.env, e.value.c_str(), e.fallback, e.doc);
    os << line;
  }
}

}  // namespace logcl
