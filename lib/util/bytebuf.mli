(** Binary encoding and decoding of fixed-layout structures.

    All multi-byte integers are little-endian. Strings and byte blobs are
    length-prefixed with a 16-bit length unless a fixed width is requested.
    Decoding performs bounds checks and raises {!Decode_error} on any
    malformed input; file-system code relies on this to treat damaged
    sectors as decode failures rather than crashes. A self-checksummed
    metadata sector is written with {!Writer.seal} and read with
    {!Reader.unseal}, which turns every such failure into [None]. *)

exception Decode_error of string

(** Append-only encoder. *)
module Writer : sig
  type t

  val create : ?initial:int -> unit -> t

  val u8 : t -> int -> unit
  (** [u8 w v] appends one byte. [v] must be in [0, 255]. *)

  val u16 : t -> int -> unit
  val u32 : t -> int -> unit

  val u64 : t -> int64 -> unit

  val i64 : t -> int -> unit
  (** [i64 w v] appends an OCaml [int] as a 64-bit value. *)

  val bool : t -> bool -> unit

  val bytes : t -> bytes -> unit
  (** Length-prefixed (u16) byte blob; length must fit 16 bits. *)

  val string : t -> string -> unit
  (** Length-prefixed (u16) string. *)

  val raw : t -> bytes -> unit
  (** Appends bytes with no length prefix. *)

  val fixed_string : t -> width:int -> string -> unit
  (** Exactly [width] bytes: the string NUL-padded. The string must be at
      most [width] bytes and contain no NUL. *)

  val list : t -> (t -> 'a -> unit) -> 'a list -> unit
  (** u16 count followed by each element. *)

  val contents : t -> bytes

  val to_sector : t -> size:int -> bytes
  (** [to_sector w ~size] pads the contents with zero bytes up to exactly
      [size] bytes. Raises [Invalid_argument] if the contents overflow. *)

  val seal : t -> size:int -> bytes
  (** [seal w ~size] is a self-checksummed sector: the contents, their
      CRC-32 as a u32, then zero bytes up to exactly [size] bytes. Equal
      to appending [Crc32.bytes (contents w)] and calling {!to_sector}.
      Raises [Invalid_argument] if the contents and CRC overflow. Every
      sealed metadata sector starts its contents with a u32 magic of its
      own, and {!Reader.unseal} reads it back. *)
end

(** Bounds-checked decoder over a byte buffer. *)
module Reader : sig
  type t

  val of_bytes : ?pos:int -> ?len:int -> bytes -> t

  val u8 : t -> int
  val u16 : t -> int
  val u32 : t -> int
  val u64 : t -> int64
  val i64 : t -> int
  val bool : t -> bool
  val bytes : t -> bytes
  val string : t -> string
  val raw : t -> int -> bytes
  val fixed_string : t -> width:int -> string
  val list : t -> (t -> 'a) -> 'a list

  val pos : t -> int
  val remaining : t -> int

  val unseal : magic:int -> bytes -> (t -> 'a) -> 'a option
  (** [unseal ~magic b f] reads a sector {!Writer.seal} wrote: a u32
      [magic], the fields [f] parses, then the CRC-32 of every byte
      before it. [None] if the magic or the CRC differs, or if [f]
      raises {!Decode_error} or [Invalid_argument]: the one rule by
      which every sealed metadata sector of FSD, CFS and the BSD
      baseline is judged damaged. *)
end
