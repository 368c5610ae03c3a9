(** CRC-32 (IEEE 802.3 polynomial), used as the page and log-record
    checksum. The file system treats a checksum mismatch as a damaged
    sector.

    Computed slicing-by-8: eight 256-entry tables fold eight input bytes
    per step (read as one little-endian 64-bit word), and a byte loop
    finishes the tail. The values are those of the classic byte-at-a-time
    loop — 0xCBF43926 for ["123456789"] — so every checksum on disk is
    unchanged. *)

val bytes : ?crc:int -> ?pos:int -> ?len:int -> bytes -> int
(** [bytes b] is the CRC-32 of [b] (or the given slice) as a non-negative
    int that fits in 32 bits. [bytes ~crc b] continues a finished CRC:
    if [crc] is the CRC of [a], the result is the CRC of [a] followed by
    the slice (default [crc] 0, the CRC of no bytes). *)

val string : string -> int

val combine : int -> int -> len:int -> int
(** [combine (bytes a) (bytes b) ~len:(Bytes.length b)] is the CRC-32 of
    [a] followed by [b], without reading either (zlib's
    [crc32_combine]). The operator for [len] is tabulated on first use
    (4 × 256 entries) and kept for the last few lengths used, so
    combining at a fixed length costs four lookups. *)
