// wirecheck fixture: the writer appends a crc the reader never consumes —
// anything framed after this header starts four bytes late.
void encode_header(Writer& enc, const Header& h) {
  enc.put_ulong(h.version);
  enc.put_ulong(h.length);
  enc.put_ulong(h.crc);
}

Header decode_header(Decoder& dec) {
  Header h;
  h.version = dec.get_ulong();
  h.length = dec.get_ulong();
  return h;
}
