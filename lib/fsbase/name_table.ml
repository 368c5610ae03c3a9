let validate_name name =
  match Fname.validate name with
  | Ok () -> ()
  | Error reason -> Fs_error.raise_ (Fs_error.Bad_name { name; reason })

module type TREE = sig
  type t

  val find_last_below : t -> string -> (string * string) option
  val iter_range : ?lo:string -> ?hi:string -> t -> (string -> string -> unit) -> unit
end

module Make (T : TREE) = struct
  let newest tree name =
    validate_name name;
    let _, hi = Fname.bounds ~name in
    match T.find_last_below tree hi with
    | None -> None
    | Some (k, v) -> (
      match Fname.parse k with
      | Some (n, version) when String.equal n name -> Some (k, version, v)
      | Some _ | None -> None)

  let newest_exn tree name =
    match newest tree name with
    | Some x -> x
    | None -> Fs_error.raise_ (Fs_error.No_such_file name)

  let versions tree ~name =
    let lo, hi = Fname.bounds ~name in
    let acc = ref [] in
    T.iter_range ~lo ~hi tree (fun k v ->
        match Fname.parse k with
        | Some (_, version) -> acc := (version, k, v) :: !acc
        | None -> ());
    !acc

  let iter_newest tree ~prefix ~on_key f =
    let current = ref None in
    let flush () = match !current with Some (n, ver, v) -> f n ver v | None -> () in
    T.iter_range ~lo:prefix ?hi:(Fname.prefix_bound prefix) tree (fun k v ->
        on_key ();
        match Fname.parse k with
        | None -> ()
        | Some (n, ver) ->
          (match !current with
          | Some (cn, _, _) when not (String.equal cn n) -> flush ()
          | Some _ | None -> ());
          current := Some (n, ver, v));
    flush ()
end
