(** Trace exporters for external viewers. *)

val chrome : ?samples:Monitor.sample list -> Trace.entry list -> Jsonb.t
(** Chrome trace-event JSON (the [about://tracing] / Perfetto format).

    Spans are emitted as complete ["X"] events (begin matched to end via
    the span id, duration from {!Trace.Op_end}), device commands as
    ["X"] events on their own thread row, log/FSD events as instants,
    plus ["M"] thread-name metadata. Each server session has its own
    row: its ["sessionNN"] spans (execute) and, from each
    {!Trace.Op_done} record, the op's queue, admission, parked and
    append slices around them. When monitor [samples] are given,
    each derived saturation gauge and each watched dist's windowed p99
    additionally becomes a counter (["C"]-phase) track, so queue depth
    and log fill render as area charts alongside the span rows.
    Timestamps are the simulated clock in microseconds, as the format
    requires. *)
