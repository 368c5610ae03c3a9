(** Fixed-size mutable bit vectors.

    Used for the volume allocation maps of FSD and CFS and the
    cylinder-group bitmaps of the BSD baseline. Bit [i] set means "page
    [i] is free" for a VAM. Run operations step a whole byte at a time
    wherever the run covers one, so their cost follows the run's length
    in bytes, not in bits. *)

type t

val create : int -> t
(** [create n] is a bitmap of [n] bits, all clear. *)

val length : t -> int
val get : t -> int -> bool
val set : t -> int -> unit
val clear : t -> int -> unit

val assign : t -> int -> bool -> unit

val count : t -> int
(** Number of set bits. *)

val set_run : t -> pos:int -> len:int -> unit
(** Sets bits [pos .. pos+len-1]. Raises [Invalid_argument], leaving the
    map unchanged, unless [0 <= pos], [0 <= len] and [pos + len <= length]. *)

val clear_run : t -> pos:int -> len:int -> unit
(** Clears bits [pos .. pos+len-1]; range rule as {!set_run}. *)

val all_set_in_run : t -> pos:int -> len:int -> bool
(** Whether bits [pos .. pos+len-1] are all set; [false], not an
    exception, for a run that leaves the map. *)

val find_run_set : t -> from:int -> upto:int -> len:int -> int option
(** [find_run_set t ~from ~upto ~len] finds the lowest [pos] with
    [from <= pos] and [pos + len <= upto] such that bits [pos .. pos+len-1]
    are all set. *)

val find_run_set_down : t -> from:int -> downto_:int -> len:int -> int option
(** Like {!find_run_set} but searching from high addresses downward:
    the highest [pos] with [downto_ <= pos] and [pos + len <= from + 1]. *)

val equal : t -> t -> bool

val to_bytes : t -> bytes
(** Packed little-endian-bit representation, 8 bits per byte. *)

val blit_to_bytes : t -> off:int -> bytes -> pos:int -> len:int -> unit
(** [blit_to_bytes t ~off dst ~pos ~len] copies bytes [off .. off+len-1]
    of the packed representation to [dst] from byte [pos], without
    copying the rest of the map. Raises [Invalid_argument] if either
    range is out of bounds. *)

val overwrite_bytes : t -> off:int -> bytes -> unit
(** Patch a byte range of the packed representation in place (used to
    apply logged allocation-map chunks); bits beyond [length] stay
    clear. *)

val of_bytes : bits:int -> bytes -> t
(** Inverse of {!to_bytes}; raises [Invalid_argument] if [bytes] is too
    short for [bits]. *)
