(** What a unit that goes through the log — a name-table page or a
    leader — still owes its home location (§5.3).

    A unit goes home only when the log writer is about to re-enter the
    third that holds its last log copy, and then as the committed image
    that copy holds, never a newer one that no log copy could roll back
    (no steal). The third and that image are one value, so a unit that
    claims a third always has its committed image. A clean unit has no
    [Dirty.t]. *)

type t

val create : unit -> t
(** A unit just changed and not logged since: modified, claiming no
    third. *)

val modified : t -> bool
(** Changed since it was last logged: the next force must log it. *)

val modify : t -> unit
(** The unit changed again; its last log copy, if any, still goes home
    when its third is reclaimed. *)

val logged : t -> third:int -> bytes -> unit
(** The unit's current image is now committed in a log record starting
    in [third]. The image is kept, not copied: bytes handed over are
    never mutated. *)

val claims : t -> int -> bool
(** Whether the unit's last log copy lies in the given third. *)

val home : t -> current:bytes -> bytes * bool
(** The image to write home, and whether the unit stays dirty after it:
    the committed image while a log copy exists (which this forgets),
    and then the unit stays dirty exactly when it was modified since;
    else [current], after which the unit is clean. *)
