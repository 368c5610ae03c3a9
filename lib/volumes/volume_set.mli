(** A set of independent Cedar volumes behind one front end.

    Each volume is a complete {!Cedar_fsd.Fsd.t}: its own device, its
    own log, its own group-commit batcher and demons. The set adds only
    what must be shared — the virtual clock every volume's device
    advances, one event trace, and one metrics root of which each
    device sees a ["volN."]-scoped view ({!Cedar_obs.Metrics.scoped}) so
    instrument names never collide. Nothing else couples the volumes:
    a crash, recovery, or scavenge of one cannot touch another, which
    is exactly why acked ⇒ durable stays a per-volume contract
    (DESIGN.md §16).

    The single-volume set is the degenerate case: no prefix is applied
    to its registry. *)

type t

val create_fresh :
  ?geom:Cedar_disk.Geometry.t ->
  ?params:Cedar_fsd.Params.t ->
  clock:Cedar_util.Simclock.t ->
  int ->
  t
(** [create_fresh ~clock n] formats and boots [n] fresh in-memory
    volumes on [geom] (default trident_t300), volume [i] formatted with
    [shard_id = i] ([params] supplies the other knobs; default
    {!Cedar_fsd.Params.for_geometry}). All devices share [clock], one
    fresh trace and scoped views of one fresh metrics root. Raises
    [Invalid_argument] when [n] is outside [1, 256] (the log record
    header stores the shard id as one byte). *)

val of_fsd : Cedar_fsd.Fsd.t -> t
(** Wrap one already-booted volume (which must be shard 0) — the
    degenerate set a single-volume server runs on. Raises
    [Invalid_argument] otherwise. *)

val count : t -> int

val route : t -> string -> int
(** The volume index owning a file name, in [0, count): an FNV-1a hash
    of the name's first path component ({!Cedar_fsbase.Fname.shard}).
    The mapping is a stable function of the name and the volume count
    alone — the same name lands on the same volume in every process,
    after every reboot, with no routing table to persist or recover —
    and names sharing a top-level directory land on the same volume,
    so [list] stays a single-volume operation. *)

val vol : t -> int -> Cedar_fsd.Fsd.t
val device : t -> int -> Cedar_disk.Device.t
val clock : t -> Cedar_util.Simclock.t

val metrics : t -> Cedar_obs.Metrics.t
(** The root registry: single-volume instruments under their historical
    unprefixed names, multi-volume ones under ["volN."] prefixes. *)

val trace : t -> Cedar_obs.Trace.t

val replace : t -> int -> Cedar_fsd.Fsd.t -> unit
(** Swap in a freshly rebooted [Fsd.t] for volume [i] after crash
    recovery. The replacement must be booted from the same device (so
    clock/trace/scoped registry are unchanged) and carry shard id [i];
    raises [Invalid_argument] otherwise. *)

val iter : (int -> Cedar_fsd.Fsd.t -> unit) -> t -> unit
