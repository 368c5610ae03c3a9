(** Time-series sampler over the {!Metrics} registry.

    A monitor turns the registry's point-in-time instruments into a
    bounded ring of timestamped snapshots on a fixed virtual-time
    cadence: each {!sample} carries per-interval {e counter deltas},
    gauge {e point values}, sliding-window percentiles for watched
    distributions, and {e derived} float gauges (saturation figures such
    as device busy fraction or op rate) computed from the same
    interval through a {!view}.

    The monitor is pull-driven: the owner polls {!maybe_sample} from its
    demon dispatch path and the monitor decides, from the clock alone,
    whether an interval has elapsed. Determinism contract: with the same
    registry contents and the same virtual clock, two runs produce
    byte-identical sample lists — iteration follows the registry's
    name-sorted view, never hashtable order. *)

type sample = {
  at_us : int;  (** virtual time the sample was taken *)
  dt_us : int;  (** elapsed virtual time since the previous sample *)
  counters : (string * int) list;  (** per-interval deltas, name-sorted *)
  gauges : (string * int) list;  (** point values, name-sorted *)
  derived : (string * float) list;  (** derived gauges, name-sorted *)
  dists : (string * Metrics.summary) list;
      (** watched dists, name-sorted: each summarises the last [window]
          values the dist recorded (not cumulative since boot like
          {!Metrics.snapshot}); [n = 0] until it records one *)
}

type view = {
  dt_us : int;  (** elapsed virtual time this interval *)
  delta : string -> int;
      (** change of the named counter {e or} gauge over the interval;
          0 for unknown names *)
  value : string -> int;
      (** current value of the named counter or gauge; 0 for unknown *)
}
(** What a derived-gauge function sees: the interval just measured. *)

type t

val create :
  ?ring:int -> ?window:int -> interval_us:int -> now:(unit -> int) -> Metrics.t -> t
(** [create ~interval_us ~now metrics] samples [metrics] every
    [interval_us] of the virtual clock [now]. [ring] bounds retained
    samples (default 4096, oldest evicted first); [window] bounds each
    watched dist's sliding window (default 256 values). Raises
    [Invalid_argument] if any of the three is below 1. *)

val interval_us : t -> int

val derive : t -> string -> (view -> float) -> unit
(** Register (or replace) a derived float gauge evaluated at every
    sample over that interval's {!view}. *)

val watch_dist : t -> string -> unit
(** Report sliding-window percentiles for the distribution registered
    in the metrics registry under this name: each sample summarises
    ({!Metrics.summarize}) the last [window] values of the series the
    registry holds at that moment ({!Cedar_util.Stats.recent}); the
    monitor keeps no values of its own. Idempotent; a name not (yet)
    registered reports [n = 0] until it appears. If the owner
    re-registers the dist with a fresh series (per-boot reset), the
    window holds only the new series' values. *)

val maybe_sample : t -> unit
(** Take a sample iff at least [interval_us] has elapsed since the last
    one (or since creation). The owner's hot-path guard is one branch on
    an option plus this comparison. *)

val sample_now : t -> sample
(** Take a sample unconditionally and return it. *)

val due_at : t -> int
(** Virtual time at which the next sample becomes due. *)

val set_on_sample : t -> (sample -> unit) -> unit
(** Callback invoked with each new sample (live [--watch] rendering). *)

val samples : t -> sample list
(** Retained samples, oldest first. *)

val last_sample : t -> sample option
val count : t -> int
(** Samples currently retained (at most [ring]). *)

val total : t -> int
(** Samples taken over the monitor's lifetime, including evicted ones. *)

val evicted : t -> int
(** Samples evicted because the ring was full. *)
