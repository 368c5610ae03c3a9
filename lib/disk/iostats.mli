(** Disk I/O counters.

    An "I/O" is one command issued to the drive — possibly a multi-sector
    transfer — matching how the paper counts I/Os in Tables 3 and 4 (e.g.
    FSD's create is "one I/O" although it transfers leader + data pages in
    a single command). *)

type t = {
  mutable ios : int;
  mutable reads : int;
  mutable writes : int;
  mutable sectors_read : int;
  mutable sectors_written : int;
  mutable label_ops : int;
  mutable seeks : int;  (** repositionings of the arm (distance > 0) *)
  mutable seek_us : int;
  mutable rotation_us : int;  (** rotational latency waited *)
  mutable transfer_us : int;
  mutable busy_us : int;  (** total device busy time *)
}

val create : unit -> t
val copy : t -> t

val diff : after:t -> before:t -> t
(** Counter-wise subtraction, for measuring one operation. *)

val to_json : t -> Cedar_obs.Jsonb.t
(** Every counter as a JSON object, used by [cedar stats] and the bench
    table emitter. *)
