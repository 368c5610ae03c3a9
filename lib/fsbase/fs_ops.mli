(** A first-class view of a file system, so that workloads, examples and
    the benchmark harness can drive CFS, FSD, and the BSD baseline through
    one interface. *)

type info = { name : string; version : int; byte_size : int; uid : int64 }

type t = {
  label : string;  (** "CFS", "FSD", ... for table headings *)
  create : name:string -> data:bytes -> info;
      (** Creates a new (newest) version of [name] holding [data]. *)
  open_stat : name:string -> info;
      (** Open without data I/O: resolve the newest version's metadata. *)
  read_all : name:string -> bytes;
  read_page : name:string -> page:int -> bytes;
  delete : name:string -> unit;  (** deletes the newest version *)
  list : prefix:string -> info list;
      (** Directory-style enumeration with properties, newest versions. *)
  force : unit -> unit;  (** commit / flush metadata (no-op where N/A) *)
  device : Cedar_disk.Device.t;
  clock : Cedar_util.Simclock.t;
}
