(** Running statistics for the benchmark harness and the metrics registry. *)

type t

val create : unit -> t
val add : t -> float -> unit
val n : t -> int
val mean : t -> float
val min : t -> float
val max : t -> float
val total : t -> float

val recent : t -> int -> float list
(** [recent t k] is the most recent [min k (n t)] values added, newest
    first. O(k); a sampler's sliding window is the last [k] values. *)

val percentile : t -> float -> float
(** [percentile t p] with [p] in [0,1]; nearest-rank, so [percentile t 0.0]
    is the minimum and [percentile t 1.0] the maximum. Values of [p]
    outside [0,1] are clamped to the nearest bound. Raises
    [Invalid_argument] only on an empty series. *)
