type info = { name : string; version : int; byte_size : int; uid : int64 }

type t = {
  label : string;
  create : name:string -> data:bytes -> info;
  open_stat : name:string -> info;
  read_all : name:string -> bytes;
  read_page : name:string -> page:int -> bytes;
  delete : name:string -> unit;
  list : prefix:string -> info list;
  force : unit -> unit;
  device : Cedar_disk.Device.t;
  clock : Cedar_util.Simclock.t;
}
