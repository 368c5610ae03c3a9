(** Run tables: a file's pages as a list of extents of consecutive disk
    sectors, in logical page order. Both CFS (in the header) and FSD (in
    the name-table entry) describe files this way. One page = one sector. *)

type run = { start : int; len : int }
type t

val empty : t
val of_runs : run list -> t
(** Validates: positive lengths, non-negative starts, no overlap between
    runs. Raises [Invalid_argument] otherwise. Adjacent runs are
    coalesced. *)

val runs : t -> run list
val pages : t -> int
(** Total number of pages (sectors). *)

val holds : t -> sector_bytes:int -> byte_size:int -> bool
(** Whether a file of [byte_size] bytes fills exactly these pages: the
    size is not negative and needs [pages t] sectors, one at least (an
    empty file keeps one page). Both file systems check an entry's size
    against its run table before reading it. *)

val size_mismatch :
  t -> sector_bytes:int -> key:string -> byte_size:int -> string option
(** [None] when {!holds}, else the fault both file systems name for the
    file [key]: its byte size does not fill exactly its data pages, so a
    read would run past them or silently truncate. *)

val append : t -> run -> t
(** Extends the file; coalesces with the final run when contiguous. *)

val sector_of_page : t -> int -> int
(** [sector_of_page t p] is the disk sector of logical page [p]. Raises
    [Invalid_argument] if [p] is out of range. *)

val contiguous_prefix : t -> page:int -> int
(** Number of pages starting at [page] that are physically consecutive on
    disk — the largest single transfer beginning there. *)

val iter_sectors : t -> (int -> unit) -> unit
val equal : t -> t -> bool

val encode : Cedar_util.Bytebuf.Writer.t -> t -> unit
val decode : Cedar_util.Bytebuf.Reader.t -> t
(** Raises [Cedar_util.Bytebuf.Decode_error] on a truncated table and on
    one {!of_runs} refuses, so a sealed record that checks but names a
    zero-length run or two overlapping runs is refused as malformed,
    like any other bad input. *)
