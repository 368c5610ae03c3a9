(** Force-ordinal crash planning: arm a device fault at "the K-th sector
    write of the M-th force interval".

    Interval [m] spans the writes between the [m]-th and [(m+1)]-th calls
    to {!note_force}; interval [0] runs from {!attach} to the first force.
    The crash-sweep harness first replays a workload once with a plan
    attached purely to record {!writes_per_interval}, then re-runs it once
    per (interval, write offset, tear mode) coordinate with {!arm} set, and
    lets [Device.Crash_during_write] propagate as the simulated halt. *)

type t

val attach : Device.t -> t
(** Installs this plan as the device's (single) observer to count sector
    writes. Displaces any previously set observer. *)

val detach : t -> unit
(** Clears the device observer. An already-armed device fault is not
    cancelled. *)

val note_force : t -> unit
(** Close the current force interval. Call at every force boundary (the
    server's [on_force] hook, which fires just before [Fsd.force]). If the
    armed coordinate names the interval now opening, the device fault is
    planted. *)

val arm : t -> force:int -> write:int -> tear:Device.tear -> unit
(** Kill the device at the [write]-th sector write of force interval
    [force] (0-based on both axes), leaving [tear] behind at the
    interrupted sector. If interval [force] is already open, the fault is
    planted immediately. *)

val writes_per_interval : t -> int array
(** Sector-write counts per interval, including the still-open final
    interval; length is one more than the number of {!note_force}
    calls. *)
