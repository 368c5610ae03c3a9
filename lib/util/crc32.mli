(** CRC-32 (IEEE 802.3 polynomial), used as the page and log-record
    checksum. The file system treats a checksum mismatch as a damaged
    sector.

    On an x86-64 CPU with carry-less multiplication (PCLMULQDQ and
    SSE4.1, looked up once at start-up), a C kernel folds 64 bytes per
    step (Gopal et al., Intel 2009). Any other CPU runs {!portable}, an
    OCaml slicing-by-8 loop. Both give the values of the classic
    byte-at-a-time loop — 0xCBF43926 for ["123456789"] — so every
    checksum on disk is the same whichever runs. *)

val bytes : ?crc:int -> ?pos:int -> ?len:int -> bytes -> int
(** [bytes b] is the CRC-32 of [b] (or the given slice) as a non-negative
    int that fits in 32 bits. [bytes ~crc b] continues a finished CRC:
    if [crc] is the CRC of [a], the result is the CRC of [a] followed by
    the slice (default [crc] 0, the CRC of no bytes). Raises
    [Invalid_argument] when the slice is not inside [b]. *)

val portable : ?crc:int -> ?pos:int -> ?len:int -> bytes -> int
(** {!bytes} computed by the OCaml slicing-by-8 loop alone: what
    {!bytes} runs on a CPU without the kernel, and the reference the
    tests hold the kernel to. *)

val string : string -> int
