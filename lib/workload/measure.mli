(** Measurement helpers shared by benchmarks and examples: virtual elapsed
    time and disk I/O counts around a piece of work. *)

type sample = {
  elapsed_us : int;
  ios : int;
  reads : int;
  writes : int;
  sectors_read : int;
  sectors_written : int;
}

val run : Cedar_fsbase.Fs_ops.t -> (unit -> 'a) -> 'a * sample

val time_ms : sample -> float

val bandwidth_fraction :
  Cedar_disk.Geometry.t -> bytes_moved:int -> elapsed_us:int -> float
(** Fraction of the raw media rate achieved. *)
