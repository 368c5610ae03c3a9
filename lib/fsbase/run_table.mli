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
