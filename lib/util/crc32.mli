(** CRC-32 (IEEE 802.3 polynomial), used as the page and log-record
    checksum. The file system treats a checksum mismatch as a damaged
    sector.

    Computed slicing-by-8: eight 256-entry tables fold eight input bytes
    per step (read as two little-endian 32-bit words), and a byte loop
    finishes the tail. The values are those of the classic byte-at-a-time
    loop — 0xCBF43926 for ["123456789"] — so every checksum on disk is
    unchanged. *)

val bytes : ?pos:int -> ?len:int -> bytes -> int
(** [bytes b] is the CRC-32 of [b] (or the given slice) as a non-negative
    int that fits in 32 bits. *)

val string : string -> int
