#include "obs/obs.hpp"

#include <cstdlib>
#include <cstring>
#include <sstream>

namespace eternal::obs {

namespace {
bool truthy(const char* v) {
  return v != nullptr && std::strcmp(v, "0") != 0 &&
         std::strcmp(v, "off") != 0 && std::strcmp(v, "false") != 0 &&
         std::strcmp(v, "") != 0;
}
}  // namespace

void configure_from_env() {
  static const bool once = [] {
    if (truthy(std::getenv("ETERNAL_TRACE"))) Tracer::global().enable();
    if (const char* dir = std::getenv("ETERNAL_BLACKBOX"); truthy(dir)) {
      FlightRecorder::global().set_dump_dir(dir);
    }
    if (const char* cap = std::getenv("ETERNAL_BLACKBOX_CAP")) {
      const long n = std::atol(cap);
      if (n > 0) {
        FlightRecorder::global().set_per_node_capacity(
            static_cast<std::size_t>(n));
      }
    }
    return true;
  }();
  (void)once;
}

std::string report_json() {
  const FlightRecorder& store = FlightRecorder::global();
  std::ostringstream os;
  os << "{\"metrics\":" << Registry::global().to_json()
     << ",\"trace\":{\"enabled\":"
     << (Tracer::global().enabled() ? "true" : "false")
     << "},\"records\":{\"absorbed\":" << store.absorbed()
     << ",\"dropped\":" << store.dropped() << ",\"nodes\":" << store.nodes()
     << ",\"fault_dumps\":" << store.fault_dumps() << ",\"list\":[";
  bool first = true;
  for (const FlightRecord& r : store.records()) {
    if (!first) os << ',';
    first = false;
    os << r.json();
  }
  os << "]}}";
  return os.str();
}

}  // namespace eternal::obs
