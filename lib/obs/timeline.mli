(** Serialization and terminal rendering for {!Monitor} samples.

    All three emitters are pure functions of their inputs, so they
    inherit the monitor's determinism contract: two identical runs
    produce byte-identical JSON, CSV and frames. *)

val to_json : Monitor.sample list -> Jsonb.t
(** The whole timeline as a JSON array, oldest sample first. *)

val to_csv : Monitor.sample list -> string
(** One row per sample. Fixed [at_us,dt_us] columns, then the union
    across all samples of counter ([c.NAME]), gauge ([g.NAME]), derived
    ([d.NAME]) and dist ([NAME.n/.p50/.p90/.p99]) columns, each group
    name-sorted; cells a sample lacks are empty. *)

val render_frame :
  ?spark:string list -> history:Monitor.sample list -> Monitor.sample -> string
(** One dashboard frame for the given sample: header line, nonzero
    counter deltas, gauges, derived saturation gauges, watched dist
    window percentiles, and a sparkline over [history] for each derived
    gauge named in [spark]. Plain text only; cursor control (clearing
    between frames on a tty) is the caller's business. *)
