(** The metadata frames FSD and CFS share (§5.1, §5.3, Table 1): one
    implementation of each, called by every file system with magic
    numbers of its own, so each system's on-disk bytes are its own.

    The third frame every system uses, the sealed sector ("magic,
    fields, CRC-32"), is {!Cedar_util.Bytebuf.Writer.seal} and
    {!Cedar_util.Bytebuf.Reader.unseal}. *)

(** {1 Name-table page frame}

    A name-table page on disk is its payload followed by a 16-byte
    trailer of u32s: the magic, the page number, the payload's CRC-32
    and a zero word. A copy that fails any of these is bad and is read
    from its twin (FSD) or reported (CFS). *)

val trailer_bytes : int
(** 16. *)

val set_trailer : bytes -> magic:int -> page:int -> crc:int -> unit
(** Write the trailer into the last {!trailer_bytes} of a full page
    image, given the CRC-32 of the payload before it. For a framer that
    takes that CRC from per-sector CRCs it already holds. *)

val frame : magic:int -> page:int -> bytes -> bytes
(** [frame ~magic ~page payload] is a fresh image: [payload], then its
    trailer. *)

val frame_valid : magic:int -> page:int -> bytes -> bool
(** Whether a full page image's trailer carries this magic and page
    number and the CRC-32 of the payload before it. Hashes the payload
    once and copies nothing. *)

val unframe : magic:int -> page:int -> bytes -> bytes option
(** The payload of a full page image, copied out, or [None] unless
    {!frame_valid}. *)

(** {1 Anchor payload}

    Page 0 of a name table: the magic, root + 1 (0 for an empty tree),
    the uid counter, the page map's length in bits and the packed map,
    zero-padded to the page payload. *)

type anchor = {
  mutable root : int option;  (** the B-tree root page *)
  alloc_map : Cedar_util.Bitmap.t;  (** set = page slot in use *)
  mutable next_uid : int64;
}

val encode_anchor : magic:int -> page_bytes:int -> anchor -> bytes
(** Exactly [page_bytes] long. Raises [Invalid_argument] if the map does
    not fit. *)

val decode_anchor : magic:int -> bytes -> anchor option
(** [None] on another magic or a truncated map. *)

(** {1 Mirrored sector}

    A boot-critical sector is written at [s] and [s + 2] with a blank
    between, as one three-sector command, so no two adjacent sectors
    hold the same data (§5.3); a read tries [s], then [s + 2]. *)

val write_mirrored : Cedar_disk.Device.t -> sector:int -> bytes -> unit
(** [write_mirrored d ~sector page] writes the one-sector [page] at
    [sector] and [sector + 2], zeroing [sector + 1]. *)

val read_mirrored :
  Cedar_disk.Device.t -> sector:int -> (bytes -> 'a option) -> 'a option
(** The first copy, of [sector] then [sector + 2], that reads and
    decodes. *)
