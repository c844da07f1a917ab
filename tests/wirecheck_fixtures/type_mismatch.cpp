// wirecheck fixture: the reader widened seconds to 64 bits without the
// writer — every field after it is now read from the wrong offset.
void encode_stamp(Writer& enc, const Stamp& s) {
  enc.put_ulong(s.seconds);
  enc.put_ulong(s.nanos);
}

Stamp decode_stamp(Decoder& dec) {
  Stamp s;
  s.seconds = dec.get_ulonglong();
  s.nanos = dec.get_ulong();
  return s;
}
