(** Systematic crash-injection sweep for the concurrent server path.

    A recording pass replays the deterministic
    {!Cedar_workload.Concurrent.crash_reference} workload once with a
    {!Cedar_disk.Crash_plan} attached to learn how many sector writes
    each force interval contains; {!sweep} then re-runs the identical
    workload once per (force interval × sector-write offset × tear mode)
    coordinate, kills the device at exactly that write, reboots via
    [Fsd.try_boot] (falling through to [Scavenge.run]), and checks the
    §5.4 contract: acked mutations present and byte-exact, unacked ones
    wholly absent (each client's recovered namespace must equal a
    mutation prefix no shorter than its acked count), and the rebuilt VAM
    in agreement with the name table. *)

type workload =
  | Reference
      (** the unique-name [crash_reference] script; every force interval
          is swept *)
  | Wrap of Cedar_workload.Concurrent.churn_spec
      (** a churn workload sized to wrap the log; calibration records
          the third-entry count at each force, and only the intervals in
          the {e wrap window} — those in which the log entered a third,
          widened by one interval each side — are swept, so every crash
          lands during a home-write burst, the reclamation pointer
          rewrite, or an append on either side of the wrap *)

type cfg = {
  clients : int;
  tears : Cedar_disk.Device.tear list;  (** modes run per crash point *)
  max_forces : int option;  (** sweep only force intervals [0 .. k-1] *)
  scavenge : bool;
      (** destroy both FNT copies before every reboot, forcing recovery
          through the scavenger (weakened oracle: scavenge legitimately
          resurrects unacked creates and acked deletes from leaders; under
          [Wrap] churn it weakens further to structural soundness and
          no alien names, since churn deletes the witnesses) *)
  workload : workload;
}

val default_cfg : cfg
(** 2 clients, every tear mode, all force intervals, no scavenging,
    [Reference] workload. *)

val default_wrap_spec : Cedar_workload.Concurrent.churn_spec
(** A churn spec sized for [Geometry.tiny_test]: two clients' worth
    wraps the log more than once while keeping the sweep affordable. *)

val all_tears : Cedar_disk.Device.tear list
(** [Tear_none], [Tear_zero], [Tear_garbage], [Tear_damage 1]. *)

val tear_name : Cedar_disk.Device.tear -> string
val tear_of_name : string -> Cedar_disk.Device.tear option
(** ["none"], ["zero"], ["garbage"], ["damage"]. *)

type path = Replay | Twin_repair | Scavenged
(** How a crashed volume came back: plain log replay, log replay that
    also repaired an FNT copy from its twin, or the scavenger. *)

type violation = {
  v_force : int;  (** force interval the crash was planted in *)
  v_write : int;  (** sector-write offset within the interval *)
  v_tear : string;
  v_what : string;
}

type summary = {
  sw_clients : int;
  sw_workload : string;
  sw_scavenge : bool;
  sw_writes_per_interval : int array;
  sw_intervals : int list;  (** force intervals actually swept *)
  sw_points : int;  (** (interval, write) coordinates enumerated *)
  sw_runs : int;  (** crash runs executed (points × tear modes) *)
  sw_replay : int;
  sw_twin_repair : int;
  sw_scavenged : int;
  sw_violations : violation list;
}

val sweep : ?geom:Cedar_disk.Geometry.t -> cfg -> summary
(** Run the full sweep on fresh in-memory volumes
    ([Geometry.small_test] by default for [Reference],
    [Geometry.tiny_test] for [Wrap]). Every crash point additionally
    checks double-reboot convergence: after the post-crash oracle
    passes, the volume is cleanly shut down and rebooted, and that boot
    must replay zero records and reproduce the namespace byte-for-byte
    — a record whose images were already written home must never be
    replayed into stale state. Raises [Invalid_argument] if the
    workload does not replay clean (or, for [Wrap], never enters a
    third), or on an empty tear list / non-positive client count. *)

val summary_json : summary -> Cedar_obs.Jsonb.t
(** Deterministic rendering, byte-identical across runs. *)

val pp : Format.formatter -> summary -> unit
