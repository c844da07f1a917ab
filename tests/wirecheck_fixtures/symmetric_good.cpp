// wirecheck fixture: a fully symmetric codec — named helper pair, counted
// loop, flag-guarded tail, and bare encode paired with decode_record by
// the leftover rule. Must produce zero findings.
void put_pair(Writer& enc, const P& p) {
  enc.put_ulong(p.a);
  enc.put_ulong(p.b);
}

P get_pair(Decoder& dec) {
  P p;
  p.a = dec.get_ulong();
  p.b = dec.get_ulong();
  return p;
}

Bytes encode(const Rec& r) {
  Arena arena;
  Writer enc(arena);
  enc.put_octet(r.flags);
  put_pair(enc, r.head);
  enc.put_ulong(item_count(r));
  for (const P& p : r.items) {
    put_pair(enc, p);
  }
  if (r.flags & kFlagTail) {
    enc.put_ulonglong(r.tail);
  }
  return enc.seal().to_bytes();
}

Rec decode_record(const Bytes& wire) {
  Decoder dec(wire);
  Rec r;
  r.flags = dec.get_octet();
  r.head = get_pair(dec);
  const uint32_t n = dec.get_ulong();
  if (n > 65536) {
    throw MarshalError("implausible item count");
  }
  for (uint32_t i = 0; i < n; ++i) {
    r.items.push_back(get_pair(dec));
  }
  if (r.flags & kFlagTail) {
    r.tail = dec.get_ulonglong();
  }
  return r;
}
