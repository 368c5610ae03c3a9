(** Deterministic pseudo-random numbers (splitmix64).

    Every stochastic component (workload generators, fault injection,
    property tests' data) draws from an explicit [Rng.t] so that runs are
    reproducible from a seed. *)

type t

val create : int -> t
(** [create seed] is a fresh generator. Equal seeds give equal streams. *)

val split : t -> t
(** An independent generator derived from the current state. *)

val int : t -> int -> int
(** [int t n] is uniform in [0, n). [n] must be positive. *)

val int_in : t -> lo:int -> hi:int -> int
(** Uniform in [lo, hi] inclusive. *)

val float : t -> float -> float
(** [float t x] is uniform in [0, x). *)

val bool : t -> bool
val chance : t -> float -> bool
(** [chance t p] is true with probability [p]. *)

val choose : t -> 'a array -> 'a
