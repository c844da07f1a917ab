// wirecheck fixture: the deadline field is guarded by kFlagUrgent when
// written but kFlagStale when read — the flag byte and the payload no
// longer agree, so urgent notes truncate and stale notes over-read.
void encode_note(Writer& enc, const Note& n) {
  enc.put_octet(n.flags);
  enc.put_string(n.text);
  if (n.flags & kFlagUrgent) {
    enc.put_ulonglong(n.deadline);
  }
}

Note decode_note(Decoder& dec) {
  Note n;
  n.flags = dec.get_octet();
  n.text = dec.get_string();
  if (n.flags & kFlagStale) {
    n.deadline = dec.get_ulonglong();
  }
  return n;
}
