(** Virtual time, in microseconds.

    The disk simulator and the file systems advance this clock; nothing in
    the repository reads wall-clock time. The FSD group-commit "demon" is
    simulated by checking elapsed virtual time at operation boundaries,
    which reproduces the paper's half-second force interval
    deterministically. *)

type t

val create : unit -> t

val now : t -> int
(** Current virtual time in microseconds since boot of the simulation. *)

val advance : t -> int -> unit
(** [advance t us] moves time forward; [us] must be non-negative. *)

val advance_to : t -> int -> unit
(** [advance_to t deadline] moves time forward to [deadline] if it is in
    the future, otherwise does nothing. *)

val ms_of_us : int -> float
val s_of_us : int -> float
