(** Per-sector hardware labels, as on the Trident disk interface.

    CFS writes a label on every sector identifying the file (uid), the
    logical page number within the file, and the page's role. Before a data
    transfer the "microcode" verifies the expected label against the one on
    disk, catching wild writes and stale run tables. FSD does not use
    labels at all — that is the point of the paper. *)

type kind =
  | Free        (** the sector belongs to no file *)
  | Header      (** CFS file header sector *)
  | Data        (** file data sector *)
  | Fnt         (** file name table sector *)
  | Vam         (** allocation-map save area *)
  | Boot        (** boot/root pages *)

type t = { uid : int64; page : int; kind : kind }

val free : t
(** The label of an unallocated sector: zero uid, page 0, [Free]. *)

val equal : t -> t -> bool

val encode : t -> bytes
val decode : bytes -> t
(** Raises [Bytebuf.Decode_error] on a malformed label. *)
