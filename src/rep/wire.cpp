#include "rep/wire.hpp"

namespace eternal::rep {

namespace {
template <class IO>
void io(IO& wire, cdr::Ref<IO, Envelope> env) {
  // lint: hotpath — one pass per envelope sent and per totally-ordered
  // delivery. On decode, strings are assigned from borrowed views so a
  // reused envelope's capacity absorbs them; WireBuf members are frame
  // slices.
  cdr::enumeration(wire, env.kind, Kind::Invocation, Kind::StateDigest,
                   "bad envelope kind");
  io(wire, env.op_id);
  wire.field(env.target_group);
  wire.field(env.reply_group);
  wire.field(env.source_group);
  wire.field(env.fulfillment);
  wire.field(env.timestamp);
  wire.field(env.giop);
  wire.field(env.state_version);
  wire.field(env.operation);
  wire.field(env.update);
  wire.field(env.read_only);
  wire.field(env.node);
  wire.field(env.round);
  wire.field(env.has_history);
  wire.field(env.chunk_index);
  wire.field(env.chunk_count);
  wire.field(env.blob);
  wire.field(env.digest);
  // The traced flag is derived from the context, which rides only when set.
  bool traced = env.trace_id != 0 || env.parent_span != 0;
  wire.field(traced);
  if constexpr (IO::kReading) {
    if (!traced) env.trace_id = env.parent_span = 0;
  }
  if (traced) {
    wire.field(env.trace_id);
    wire.field(env.parent_span);
  }
}
}  // namespace

void encode_envelope_into(cdr::Writer& w, const Envelope& env) { io(w, env); }

void decode_envelope_into(Envelope& env, const cdr::WireBuf& frame) {
  cdr::Decoder dec(frame);
  io(dec, env);
}

Envelope decode_envelope(const cdr::WireBuf& frame) {
  Envelope env;
  decode_envelope_into(env, frame);
  return env;
}

Bytes encode(const Envelope& env) {
  cdr::Arena arena;
  cdr::Writer w(arena, env.giop.size() + env.update.size() +
                           env.blob.size() + 256);
  encode_envelope_into(w, env);
  return w.seal().to_bytes();
}

}  // namespace eternal::rep
