// wirecheck fixture: the writer serializes all three shades; the reader's
// switch forgot Blue and has no default — Blue frames decode garbage.
enum class Shade { Red, Green, Blue };

void encode_shade(Writer& enc, const Msg& m) {
  enc.put_octet(tag_of(m.shade));
  switch (m.shade) {
    case Shade::Red:
      enc.put_ulong(m.r);
      break;
    case Shade::Green:
      enc.put_ulong(m.g);
      break;
    case Shade::Blue:
      enc.put_ulong(m.b);
      break;
  }
}

Msg decode_shade(Decoder& dec) {
  Msg m;
  m.tag = dec.get_octet();
  switch (shade_of(m.tag)) {
    case Shade::Red:
      m.r = dec.get_ulong();
      break;
    case Shade::Green:
      m.g = dec.get_ulong();
      break;
  }
  return m;
}
