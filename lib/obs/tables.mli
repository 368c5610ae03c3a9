(** Table replayers: the one fold of an FSD trace into the paper's
    evaluation tables.

    These are pure functions over {!Trace.entry} lists; [cedar stats]
    and the bench harness ([bench obs-json]) drive a scripted workload
    with tracing enabled and hand the buffer here. Each quantity is
    counted once, by one of:

    - {!per_op}, the Tables 3/4 analogue: device I/Os attributed to the
      FSD operation (span) that issued them, and each call's simulated
      latency (its span's duration);
    - {!log_activity}, the Table 2 and §5.4 analogue: bytes logged per
      commit batch, forces vs empty forces, ops amortised per force,
      the force cadence and the active log third's occupancy;
    - {!recovery_phases}, the Table 5 analogue: per-phase timings of
      log replay, VAM rebuild and scavenging.

    A span's duration is the FSD call's own latency. A server client's
    latency is its op record ({!Trace.op_record}), which adds the time
    the op spent queued and parked for its force. *)

type op_row = {
  op : string;
  calls : int;
  reads : int;  (** device read commands *)
  writes : int;  (** device write commands *)
  sectors_read : int;
  sectors_written : int;
  device_us : int;  (** simulated time inside device commands *)
  op_us : int;  (** total simulated latency across calls *)
  latency_us : Cedar_util.Stats.t;
      (** each call's simulated latency, one sample per closed span;
          [calls] and [op_us] are its count and total *)
  amortised_ios : float;
      (** [reads + writes] after moving each group-commit log append's
          device write from the span that ran the force to the ops whose
          {!Trace.Mutation}s the batch carried, pro-rata by mutation
          count — so a batched [delete] no longer reads as zero-I/O.
          Totals across rows are conserved. *)
  amortised_writes : float;
  amortised_sectors_written : float;
}

val per_op : Trace.entry list -> op_row list
(** One row per distinct operation label, sorted by label. Device
    events are attributed to their innermost enclosing span; events
    outside any span are collected under the pseudo-op ["(none)"].

    The [amortised_*] columns re-attribute group-commit log I/O: raw
    attribution charges every append to whichever span executed the
    force, so ops that merely parked in the batch read as zero-I/O. At
    every non-empty {!Trace.Log_force}, the appends accumulated since
    the previous one are re-charged to the labels that emitted
    {!Trace.Mutation} events in that window, proportionally to their
    mutation counts; forces whose window recorded no mutations keep the
    raw attribution. *)

type log_row = {
  records : int;  (** log records appended *)
  units : int;  (** page images across all records *)
  data_sectors : int;
  total_sectors : int;  (** including headers/copies of header *)
  forces : int;
  empty_forces : int;
  units_per_force : Cedar_util.Stats.t;  (** per non-empty force *)
  data_sectors_per_record : Cedar_util.Stats.t;
  ops_per_force : Cedar_util.Stats.t;
      (** operations completed since the previous force (force spans
          excluded); one sample per force, empty forces included *)
  force_interval_us : Cedar_util.Stats.t;
      (** virtual time between consecutive forces *)
  third_timeline : (int * int * int) list;
      (** [(at_us, third, occupied_sectors)] per log append, oldest
          first; occupancy restarts when the active third changes *)
}

val log_activity : Trace.entry list -> log_row

type phase_row = { phase : string; us : int }

val recovery_phases : Trace.entry list -> phase_row list
(** Recovery, VAM-rebuild and scavenge phase events in trace order. *)

val per_op_json : op_row list -> Jsonb.t
val log_json : ?sector_bytes:int -> log_row -> Jsonb.t
(** With [sector_bytes], also reports [data_bytes] / [total_bytes].
    Distributions render as {!Metrics.summary_json}. *)

val recovery_json : phase_row list -> Jsonb.t

val pp_per_op : Format.formatter -> op_row list -> unit
(** Fixed-width table, Tables 3/4 style, then each op's latency. *)

val pp_log : Format.formatter -> log_row -> unit
