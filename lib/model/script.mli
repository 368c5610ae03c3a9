(** The paper's §6 analytic performance model.

    An operation is described by a {e script}: a sequence of mechanical
    steps whose expected durations are computed from the disk geometry.
    Scripts incorporate known rotational and radial locality — e.g. a
    rewrite of sectors that just passed the head costs a revolution minus
    the preceding transfer, and a same-cylinder access is a short seek.

    The model "almost always predicted performance to within five percent
    of measured performance"; [test/test_model.ml] and bench R5 hold this
    implementation to the same standard against the simulator. *)

type step =
  | Seek  (** average-length seek *)
  | Short_seek of int  (** a few cylinders *)
  | Latency  (** half a revolution of rotational delay *)
  | Revolution  (** a full lost revolution *)
  | Rev_minus_transfer of int
      (** a revolution minus the time of the preceding [n]-sector
          transfer: the read-then-immediately-rewrite pattern *)
  | Transfer of int  (** [n] consecutive sectors *)
  | Long_transfer of int
      (** [n] consecutive sectors including the expected head switches
          and track-to-track seeks a multi-track transfer incurs *)
  | Cpu of int  (** microseconds of processing *)

type t = step list

val step_us : Cedar_disk.Geometry.t -> step -> float
val time_us : Cedar_disk.Geometry.t -> t -> float
val time_ms : Cedar_disk.Geometry.t -> t -> float

val weighted : Cedar_disk.Geometry.t -> (float * t) list -> float
(** [weighted g [(p1, s1); ...]] is the probability-weighted expected time
    in microseconds — used to average the cache-hit and cache-miss cases.
    The probabilities must sum to 1 (within 1e-6). *)
