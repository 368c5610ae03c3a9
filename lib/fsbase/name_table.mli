(** The walks FSD and CFS make over their name tables, whose keys are
    [name!version] ({!Fname.key}). Each returns the raw value stored
    under a key, which the caller decodes: an FSD {!Entry.t} or a CFS
    header address. *)

val validate_name : string -> unit
(** Raises [Fs_error (Bad_name _)] unless {!Fname.validate} accepts the
    name. *)

module type TREE = sig
  type t

  val find_last_below : t -> string -> (string * string) option
  (** Greatest binding with key strictly below the argument. *)

  val iter_range : ?lo:string -> ?hi:string -> t -> (string -> string -> unit) -> unit
  (** In key order over [lo <= key < hi]. *)
end

module Make (T : TREE) : sig
  val newest : T.t -> string -> (string * int * string) option
  (** Checks the name ({!validate_name}), then finds the key, version
      and stored value of its newest version by one descent. *)

  val newest_exn : T.t -> string -> string * int * string
  (** Like {!newest}; raises [Fs_error (No_such_file _)] when the name
      has no version. *)

  val versions : T.t -> name:string -> (int * string * string) list
  (** Every version of the name, newest first, each with its key and
      stored value: one range scan. *)

  val iter_newest :
    T.t ->
    prefix:string ->
    on_key:(unit -> unit) ->
    (string -> int -> string -> unit) ->
    unit
  (** [iter_newest tree ~prefix ~on_key f] scans the keys that start
      with [prefix] once, in order. It calls [on_key ()] at every key,
      first, and [f name version value] for the newest version of each
      name, at the first key past that name's last (or after the
      scan). *)
end
