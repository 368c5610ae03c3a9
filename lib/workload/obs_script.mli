(** The fixed scripted workload behind [cedar stats], [cedar trace] and
    the hand-counted expectations in test_obs: [n] small files in one
    directory — create all, force, open all, read all, list, delete all,
    force. Run {!warmup} first (and enable tracing after it) so the
    scripted pass measures steady-state I/O rather than first-touch
    cache misses. *)

val n : int
(** Files in the scripted pass (10). *)

val bytes_each : int
(** Payload size per file (900 bytes — small, per Tables 3/4). *)

val dir : string

val warmup : Cedar_fsbase.Fs_ops.t -> unit
val scripted : Cedar_fsbase.Fs_ops.t -> unit

val paper_bulk : Cedar_fsbase.Fs_ops.t -> unit
(** A bulk pass of the paper's Tables 3/4 shape for the bench emitter:
    create, list, read and delete 100 files of 512 bytes (the tables
    themselves use 700-byte files). *)
