// E4 — State-transfer time vs state size, and the stop-and-copy vs
// chunked-concurrent ablation.
//
// A new replica joins a key-value group whose state we scale from ~1 KiB to
// ~4 MiB. We measure (a) time from join to synced, and (b) the worst
// client-visible latency *during* the transfer — the paper's refined scheme
// exists precisely so processing does not stop while state moves.
//
// Expected shape: transfer time linear in state size; with one giant chunk
// (stop-and-copy analogue) concurrent client latency spikes with state
// size, while chunked transfer keeps it nearly flat.
#include "harness.hpp"

using namespace eternal;
using namespace eternal::bench;

namespace {

struct Result {
  double sync_ms = 0;
  double worst_client_us = 0;
  std::size_t state_bytes = 0;
};

Result measure(std::size_t entries, std::uint32_t chunk_bytes) {
  rep::EngineParams ep;
  ep.snapshot_chunk_bytes = chunk_bytes;
  FtCluster c(4, /*seed=*/1, ep);
  c.domain.host_on<app::KvStore>(
      rep::GroupConfig{"kv", rep::Style::Active}, {0, 1});
  c.settle();

  const cdr::Bytes fill = cdr::make_bytes([entries](cdr::Writer& w) {
    w.put_ulonglong(entries);
    w.put_ulonglong(64);  // 64-byte values
  });
  c.domain.client(3).invoke_blocking("kv", "fill", fill, 60 * sim::kSecond);
  c.settle();
  const std::size_t state_bytes =
      c.domain.engine(0).checkpoint_sizes("kv").application;

  // Join a fresh replica; keep a client hammering the group meanwhile.
  const sim::Time join_at = c.sim.now();
  c.domain.engine(2).host(rep::GroupConfig{"kv", rep::Style::Active},
                          std::make_shared<app::KvStore>(),
                          /*initial=*/false);
  util::Summary during;
  while (!c.domain.engine(2).is_synced("kv") &&
         c.sim.now() < join_at + 120 * sim::kSecond) {
    during.add(static_cast<double>(
        c.timed_call(3, "kv", "put", cdr::make_bytes([](cdr::Writer& w) {
                       w.put_string("hot");
                       w.put_string("value");
                     }))));
  }
  const double sync_ms =
      static_cast<double>(c.sim.now() - join_at) / sim::kMillisecond;
  return {sync_ms, during.empty() ? 0.0 : during.max(), state_bytes};
}

}  // namespace

int main() {
  banner("E4", "state-transfer time vs state size (new replica join)");
  Table table({"entries", "state", "mode", "sync time (ms)",
               "worst concurrent client lat (us)"});
  for (std::size_t entries : {16u, 256u, 1024u, 8192u, 32768u}) {
    for (auto [chunk, mode] :
         {std::pair{64u * 1024u * 1024u, "stop-and-copy (1 chunk)"},
          std::pair{32u * 1024u, "chunked 32KiB"}}) {
      const Result r = measure(entries, chunk);
      table.row({std::to_string(entries),
                 std::to_string(r.state_bytes / 1024) + " KiB", mode,
                 fmt(r.sync_ms, 2), fmt(r.worst_client_us, 0)});
    }
  }
  table.print();
  std::puts("\nshape check: sync time linear in state size; chunking keeps "
            "concurrent client latency flat where stop-and-copy spikes.");
  obs_report("state_transfer");
  return 0;
}
