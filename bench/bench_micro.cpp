// E10 — Microbenchmarks (google-benchmark): marshaling and identifier
// machinery costs in *wall-clock* time. These are the per-message CPU costs
// underneath every simulated metric in E1-E9.
#include <benchmark/benchmark.h>

#include <map>

#include "giop/giop.hpp"
#include "obs/obs.hpp"
#include "rep/oracle.hpp"
#include "rep/wire.hpp"
#include "totem/fabric.hpp"
#include "totem/wire.hpp"

using namespace eternal;

namespace {

void BM_CdrEncodePrimitives(benchmark::State& state) {
  cdr::Arena arena;
  for (auto _ : state) {
    cdr::Writer w(arena);
    for (int i = 0; i < 16; ++i) {
      w.put_ulong(static_cast<std::uint32_t>(i));
      w.put_ulonglong(static_cast<std::uint64_t>(i) << 32);
      w.put_double(1.5 * i);
    }
    benchmark::DoNotOptimize(w.written().data());
  }
}
BENCHMARK(BM_CdrEncodePrimitives);

void BM_CdrStringRoundTrip(benchmark::State& state) {
  const std::string s(static_cast<std::size_t>(state.range(0)), 'x');
  cdr::Arena arena;
  for (auto _ : state) {
    cdr::Writer w(arena);
    w.put_string(s);
    cdr::Decoder dec(w.written());
    benchmark::DoNotOptimize(dec.get_string());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CdrStringRoundTrip)->Arg(16)->Arg(256)->Arg(4096);

void BM_GiopRequestRoundTrip(benchmark::State& state) {
  giop::RequestHeader hdr;
  hdr.request_id = 42;
  hdr.object_key = cdr::WireBuf(cdr::Bytes{'g', 'r', 'o', 'u', 'p'});
  hdr.operation = "increment";
  cdr::Bytes body(static_cast<std::size_t>(state.range(0)), 0xAB);
  for (auto _ : state) {
    cdr::Bytes wire = giop::encode_request(hdr, body);
    giop::Message msg = giop::decode(wire);
    benchmark::DoNotOptimize(msg.request->operation.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GiopRequestRoundTrip)->Arg(64)->Arg(1024)->Arg(16384);

void BM_EnvelopeRoundTrip(benchmark::State& state) {
  rep::Envelope env;
  env.kind = rep::Kind::Invocation;
  env.op_id = {{7, 1234}, 3};
  env.target_group = "acct.checking";
  env.reply_group = "teller";
  env.source_group = "teller";
  env.giop = cdr::WireBuf(cdr::Bytes(256, 0xCD));
  for (auto _ : state) {
    cdr::Bytes wire = rep::encode(env);
    rep::Envelope out = rep::decode_envelope(cdr::WireBuf(wire));
    benchmark::DoNotOptimize(out.target_group.data());
  }
}
BENCHMARK(BM_EnvelopeRoundTrip);

void BM_TotemDataRoundTrip(benchmark::State& state) {
  totem::Packet pkt;
  pkt.kind = totem::MsgKind::Data;
  pkt.data.ring = {42, 0};
  pkt.data.seq = 1234;
  pkt.data.origin = 3;
  pkt.data.group = totem::group_buf("inventory");
  pkt.data.payload = cdr::WireBuf(cdr::Bytes(512, 0xEF));
  for (auto _ : state) {
    totem::Bytes wire = totem::encode(pkt);
    totem::Packet out = totem::decode_packet(wire);
    benchmark::DoNotOptimize(out.data.payload.data());
  }
}
BENCHMARK(BM_TotemDataRoundTrip);

void BM_OperationIdTableLookup(benchmark::State& state) {
  std::map<rep::OperationId, int> table;
  for (std::uint64_t i = 0; i < 4096; ++i) {
    table[{{i / 64, i % 64}, i}] = static_cast<int>(i);
  }
  std::uint64_t i = 0;
  for (auto _ : state) {
    rep::OperationId key{{i / 64, i % 64}, i};
    benchmark::DoNotOptimize(table.find(key));
    i = (i + 1) % 4096;
  }
}
BENCHMARK(BM_OperationIdTableLookup);

void BM_ObsCounterInc(benchmark::State& state) {
  obs::Counter& c =
      obs::Registry::global().counter("bench.counter_inc");
  for (auto _ : state) {
    c.inc();
    benchmark::DoNotOptimize(&c);
  }
}
BENCHMARK(BM_ObsCounterInc);

void BM_ObsHistogramObserve(benchmark::State& state) {
  obs::Histogram& h = obs::Registry::global().histogram(
      "bench.histogram_observe", 0.0, 10000.0, 50);
  double v = 0.0;
  for (auto _ : state) {
    h.observe(v);
    v = v < 9999.0 ? v + 17.0 : 0.0;
  }
}
BENCHMARK(BM_ObsHistogramObserve);

// The per-message cost of tracing when it is switched off: the guard the
// engine's hot path pays on every envelope must stay a single branch.
void BM_ObsTraceDisabledGuard(benchmark::State& state) {
  obs::Tracer& t = obs::Tracer::global();
  t.enable(false);
  const obs::OpRef op{7, 1234, 3};
  std::uint64_t now = 0;
  for (auto _ : state) {
    if (t.enabled()) {
      t.record(now, 1, op, obs::SpanEvent::TotemDeliver, "never built");
    }
    benchmark::DoNotOptimize(++now);
  }
}
BENCHMARK(BM_ObsTraceDisabledGuard);

// The per-record cost of tracing when it is on: one span written in place
// into the node's flight-recorder ring (at the default per-node capacity,
// so the loop measures the steady state of a wrapped ring).
void BM_ObsTraceRecordEnabled(benchmark::State& state) {
  obs::Tracer& t = obs::Tracer::global();
  t.clear();
  t.enable(true);
  const obs::OpRef op{7, 1234, 3};
  std::uint64_t now = 0;
  for (auto _ : state) {
    t.record(++now, 1, op, obs::SpanEvent::TotemDeliver,
             "group=inventory");
  }
  t.enable(false);
  benchmark::DoNotOptimize(obs::FlightRecorder::global().absorbed());
  t.clear();
}
BENCHMARK(BM_ObsTraceRecordEnabled);

// The per-operation cost of the divergence oracle when it is switched off:
// like the tracer, the engine's execution path pays a single predictable
// branch and never computes a digest.
void BM_OracleDisabledGuard(benchmark::State& state) {
  rep::DivergenceOracle oracle(0);  // interval 0 = disabled
  std::uint64_t version = 0;
  std::uint64_t armed = 0;
  for (auto _ : state) {
    ++version;
    if (oracle.enabled() && oracle.due(version)) ++armed;
    benchmark::DoNotOptimize(armed);
  }
}
BENCHMARK(BM_OracleDisabledGuard);

// The enabled-path bookkeeping: one observe() per delivered digest.
void BM_OracleObserve(benchmark::State& state) {
  rep::DivergenceOracle oracle(1);
  std::uint64_t seq = 0;
  for (auto _ : state) {
    rep::OperationId op{{1, ++seq}, 1};
    benchmark::DoNotOptimize(
        oracle.observe("acct.checking", op, 1, 0xFEEDULL, seq));
    benchmark::DoNotOptimize(
        oracle.observe("acct.checking", op, 2, 0xFEEDULL, seq));
  }
}
BENCHMARK(BM_OracleObserve);

// Wall-clock cost of draining a batch through the ring: a burst of messages
// is multicast by one member and the simulation steps until every member has
// delivered the whole batch. Exercises the contiguous deliver-queue drain in
// the Totem node (one pass per token visit, not one pass per message).
void BM_DeliverDrain(benchmark::State& state) {
  const std::size_t nodes = 3;
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  totem::Params tp;
  sim::Simulation sim(1);
  sim::Network net(sim, nodes);
  totem::Fabric fabric(sim, net, tp);
  std::size_t delivered = 0;
  for (sim::NodeId i = 0; i < nodes; ++i) {
    fabric.group(i).subscribe(
        "g", [&](const totem::GroupMessage&) { ++delivered; });
  }
  fabric.start_all();
  fabric.run_until_converged(5 * sim::kSecond);
  const cdr::WireBuf msg(cdr::Bytes(64, 0xAB));
  for (auto _ : state) {
    delivered = 0;
    for (std::size_t i = 0; i < batch; ++i) fabric.group(0).send("g", msg);
    while (delivered < batch * nodes) sim.step();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * batch));
}
BENCHMARK(BM_DeliverDrain)->Arg(16)->Arg(64);

void BM_FtRequestContext(benchmark::State& state) {
  giop::FtRequestContext ctx;
  ctx.client_id = "client.4";
  ctx.retention_id = 77;
  ctx.expiration_time = 123456789;
  for (auto _ : state) {
    cdr::WireBuf bytes(ctx.encode());
    benchmark::DoNotOptimize(giop::FtRequestContext::decode(bytes));
  }
}
BENCHMARK(BM_FtRequestContext);

}  // namespace

BENCHMARK_MAIN();
