(** Serialization and terminal rendering for {!Monitor} samples.

    Both emitters are pure functions of their inputs, so they inherit
    the monitor's determinism contract: two identical runs produce
    byte-identical JSON and frames. *)

val to_json : Monitor.sample list -> Jsonb.t
(** The whole timeline as a JSON array, oldest sample first. *)

val render_frame :
  ?spark:string list -> history:Monitor.sample list -> Monitor.sample -> string
(** One dashboard frame for the given sample: header line, nonzero
    counter deltas, gauges, derived saturation gauges, watched dist
    window percentiles, and a sparkline over [history] for each derived
    gauge named in [spark]. Plain text only; cursor control (clearing
    between frames on a tty) is the caller's business. *)
