// wirecheck fixture: the reader consumes y before x, but the writer
// produced x first. Classic reorder drift — both sides still compile and
// round-trip their own output, yet cross-version peers corrupt state.
void encode_point(Writer& enc, const Point& p) {
  enc.put_ulong(p.x);
  enc.put_ulonglong(p.y);
}

Point decode_point(Decoder& dec) {
  Point p;
  p.y = dec.get_ulonglong();
  p.x = dec.get_ulong();
  return p;
}
