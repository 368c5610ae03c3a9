(** The crash-contract harness for the concurrent server path: one
    clean run and one verdict, shared by the log-wrap endurance run
    ([cedar churn]) and the crash-injection sweep ([cedar faultsweep]).

    {!clean_run} serves a deterministic workload once on a fresh volume,
    with a {!Cedar_disk.Crash_plan} attached that only counts how many
    sector writes each force interval contains. {!sweep} makes that
    clean run, then re-runs the identical workload once per (force
    interval × sector-write offset × tear mode) coordinate, kills the
    device at exactly that write, and reboots via [Fsd.try_boot]
    (falling through to [Scavenge.run]).

    The clean run's volume and every recovered one get the same verdict,
    §5.4's contract: [Fsd.check] passes (its VAM/name-table agreement
    catches a leaked sector); every name comes from the
    scripts; each client's namespace equals a mutation prefix no shorter
    than its acked count (the full fold when every mutation is acked);
    and a clean shutdown and reboot
    replays zero records, reproduces the namespace digest and passes
    [Fsd.check] again. *)

type workload =
  | Reference
      (** the unique-name [crash_reference] script; every force interval
          is swept *)
  | Wrap of Cedar_workload.Concurrent.churn_spec
      (** the churn workload, which wraps the log; the clean run records
          the third-entry count at each force, and a sweep covers only
          the intervals in the {e wrap window} — those in which the log
          entered a third, widened by one interval each side — so every
          crash lands during a home-write burst, the reclamation pointer
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

type clean_run = {
  c_report : Server.report;
  c_third_entries : int;  (** thirds entered — /3 for full log wraps *)
  c_log_records : int;
  c_home_write_bursts : int;  (** background home-write demon passes *)
  c_reclaim_stalls : int;  (** typed [Log_reclaim_stall] refusals *)
  c_fnt_home_writes : int;
  c_violations : string list;
      (** client errors and aborted sessions in the serve, then what the
          verdict found on the volume the run left *)
  c_replayed_after_shutdown : int;
      (** by the reboot after a clean shutdown; must be 0 (-1 if the
          shutdown or the reboot raised) *)
  c_digest_match : bool;  (** that reboot reproduced the namespace *)
  c_violations_after_reboot : string list;
      (** what the verdict's convergence clause found *)
}

val clean_run :
  ?geom:Cedar_disk.Geometry.t -> clients:int -> workload -> clean_run
(** Serve the workload once on a fresh in-memory volume
    ([Geometry.small_test] by default for [Reference],
    [Geometry.tiny_test] for [Wrap], which wraps far faster for the same
    spec) and give it the verdict. Deterministic: same arguments,
    byte-identical {!clean_run_json}. Raises [Invalid_argument] if
    [clients < 1] or a [Wrap] spec's [churn_keep] disagrees with the
    geometry's [default_keep]. *)

val passed : clean_run -> bool
(** No violation in the serve, the verdict or its convergence clause. *)

val clean_run_json : clean_run -> Cedar_obs.Jsonb.t
val pp_clean_run : Format.formatter -> clean_run -> unit

exception Refused of string
(** Why {!sweep} has nothing sound to sweep: its clean run fails the
    verdict, or a [Wrap] workload never enters a third. *)

val sweep : ?geom:Cedar_disk.Geometry.t -> cfg -> summary
(** Make the clean run ({!clean_run}'s geometry defaults), then crash
    and recover once per coordinate, giving every recovered volume the
    same verdict. Raises {!Refused} if the clean run does not pass (or,
    for [Wrap], never enters a third), and [Invalid_argument] on an
    empty tear list / non-positive client count. *)

val summary_json : summary -> Cedar_obs.Jsonb.t
(** Deterministic rendering, byte-identical across runs. *)

val pp : Format.formatter -> summary -> unit
