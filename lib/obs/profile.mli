(** Profiles folded from a live trace.

    Where {!Tables} reproduces the paper's published tables, this module
    answers the operational questions behind them: what did each
    operation cost end to end, how many operations did each group-commit
    force amortise (§3's whole argument), how regular was the force
    cadence, and how full was the active log third over time. *)

type t = {
  op_latency : (string * Cedar_util.Stats.t) list;
      (** end-to-end simulated latency per op label, name-sorted *)
  ops_per_force : Cedar_util.Stats.t;
      (** operations completed between consecutive forces (the force
          spans themselves excluded); one sample per force, empty forces
          included *)
  force_interval_us : Cedar_util.Stats.t;
      (** virtual time between consecutive forces *)
  third_timeline : (int * int * int) list;
      (** [(at_us, third, occupied_sectors)] per log append; occupancy
          resets when the active third changes *)
  fnt_dirty_age_us : Cedar_util.Stats.t option;
      (** how long FNT cache pages stayed dirty before their home write,
          when the caller supplies the series (registered by
          [Fnt_store] as ["fnt.dirty_page_age_us"]) *)
  forces : int;
  empty_forces : int;
}

val of_entries : ?fnt_dirty_age_us:Cedar_util.Stats.t -> Trace.entry list -> t

val to_json : t -> Jsonb.t
val pp : Format.formatter -> t -> unit
